"""Tests for workload generators: EMR cohorts and access traces."""

import numpy as np

from repro.workloads.emr import cohort_to_tabular, generate_emr_cohort
from repro.workloads.traces import (
    looping_trace,
    mixed_read_write_trace,
    shifting_trace,
    zipf_trace,
)


class TestEmrGenerator:
    def test_deterministic(self):
        a = generate_emr_cohort(n_patients=20, n_drugs=10, seed=1)
        b = generate_emr_cohort(n_patients=20, n_drugs=10, seed=1)
        assert np.array_equal(a.true_effects, b.true_effects)
        assert np.array_equal(a.patients[0].values, b.patients[0].values)

    def test_planted_effect_counts(self):
        cohort = generate_emr_cohort(n_patients=20, n_drugs=20,
                                     n_lowering=5, seed=2)
        lowering = (cohort.true_effects < 0).sum()
        raising = (cohort.true_effects > 0).sum()
        assert lowering == 5
        assert raising == 2

    def test_measurement_counts_in_range(self):
        cohort = generate_emr_cohort(n_patients=30, n_drugs=5, seed=3,
                                     measurements_per_patient=(5, 9))
        for patient in cohort.patients:
            assert 5 <= len(patient.times) <= 9

    def test_times_sorted(self):
        cohort = generate_emr_cohort(n_patients=10, n_drugs=5, seed=4)
        for patient in cohort.patients:
            assert (np.diff(patient.times) >= 0).all()

    def test_baselines_diverse(self):
        cohort = generate_emr_cohort(n_patients=100, n_drugs=5, seed=5)
        means = [p.values.mean() for p in cohort.patients]
        assert np.std(means) > 0.5

    def test_confounders_flag(self):
        confounded = generate_emr_cohort(n_patients=50, n_drugs=10, seed=6)
        clean = generate_emr_cohort(n_patients=50, n_drugs=10, seed=6,
                                    confounders=False)
        assert confounded.confounders_enabled
        assert not clean.confounders_enabled

    def test_exposures_binary(self):
        cohort = generate_emr_cohort(n_patients=10, n_drugs=5, seed=7)
        for patient in cohort.patients:
            assert set(np.unique(patient.exposures)) <= {0.0, 1.0}

    def test_tabular_conversion(self):
        cohort = generate_emr_cohort(n_patients=15, n_drugs=5, seed=8)
        rows = cohort_to_tabular(cohort)
        assert len(rows) == 15
        for row in rows:
            assert 18 <= row["age"] < 95
            assert row["gender"] in ("female", "male")


class TestTraces:
    def test_zipf_skew(self):
        trace = zipf_trace(100, 10_000, skew=1.2, seed=1)
        counts = np.bincount(trace, minlength=100)
        # Most popular item dominates the median item.
        assert counts.max() > 20 * np.median(counts[counts > 0])

    def test_zipf_deterministic(self):
        assert zipf_trace(50, 100, seed=3) == zipf_trace(50, 100, seed=3)

    def test_looping(self):
        trace = looping_trace(5, 12)
        assert trace == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1]

    def test_shifting_changes_popular_set(self):
        trace = shifting_trace(50, 4000, phases=2, seed=2)
        first = trace[:2000]
        second = trace[2000:]
        top_first = np.argmax(np.bincount(first, minlength=50))
        top_second = np.argmax(np.bincount(second, minlength=50))
        assert top_first != top_second

    def test_mixed_trace_write_fraction(self):
        trace = mixed_read_write_trace(20, 5000, write_fraction=0.2, seed=4)
        writes = sum(1 for op, _ in trace if op == "write")
        assert 0.15 < writes / len(trace) < 0.25

    def test_trace_length(self):
        assert len(shifting_trace(10, 999, phases=4, seed=1)) == 999
