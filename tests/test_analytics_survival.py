"""Tests for the survival-analysis toolkit (Kaplan-Meier, log-rank)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analytics.survival import (
    KaplanMeier,
    generate_survival_cohort,
    log_rank_test,
)
from repro.core.errors import ConfigurationError


class TestKaplanMeier:
    def test_no_censoring_matches_empirical(self):
        durations = [1.0, 2.0, 3.0, 4.0]
        observed = [True] * 4
        curve = KaplanMeier().fit(durations, observed)
        # With no censoring, S(t) is the empirical survivor function.
        assert curve.probability_at(0.5) == 1.0
        assert curve.probability_at(1.0) == pytest.approx(0.75)
        assert curve.probability_at(2.5) == pytest.approx(0.50)
        assert curve.probability_at(4.0) == pytest.approx(0.0)

    def test_censoring_removes_from_risk_set(self):
        # Event at 1, censored at 2, event at 3: S(3) = 0.75 * (1 - 1/2).
        curve = KaplanMeier().fit([1.0, 2.0, 3.0, 4.0],
                                  [True, False, True, False])
        assert curve.probability_at(1.5) == pytest.approx(0.75)
        assert curve.probability_at(3.5) == pytest.approx(0.375)

    def test_all_censored_flat_curve(self):
        curve = KaplanMeier().fit([1.0, 2.0, 3.0], [False, False, False])
        assert curve.probability_at(100.0) == 1.0
        assert curve.median_survival() is None

    def test_median_survival(self):
        durations = list(range(1, 11))
        curve = KaplanMeier().fit(durations, [True] * 10)
        assert curve.median_survival() == 5.0

    def test_tied_event_times(self):
        curve = KaplanMeier().fit([2.0, 2.0, 2.0, 5.0],
                                  [True, True, False, True])
        # At t=2: 4 at risk, 2 deaths -> S = 0.5; at t=5: 1 at risk, 1 death.
        assert curve.probability_at(2.0) == pytest.approx(0.5)
        assert curve.probability_at(5.0) == pytest.approx(0.0)

    def test_matches_exponential_ground_truth(self):
        rng = np.random.default_rng(3)
        hazard = 0.05
        raw = rng.exponential(1.0 / hazard, size=4000)
        curve = KaplanMeier().fit(raw, [True] * 4000)
        for t in (5.0, 10.0, 20.0):
            assert curve.probability_at(t) == pytest.approx(
                np.exp(-hazard * t), abs=0.03)

    def test_input_validation(self):
        with pytest.raises(ConfigurationError):
            KaplanMeier().fit([], [])
        with pytest.raises(ConfigurationError):
            KaplanMeier().fit([1.0, -2.0], [True, True])
        with pytest.raises(ConfigurationError):
            KaplanMeier().fit([1.0], [True, False])


class TestLogRank:
    def test_protective_drug_detected(self):
        exposed_d, exposed_o, unexposed_d, unexposed_o = \
            generate_survival_cohort(hazard_ratio=0.5, seed=4)
        result = log_rank_test(exposed_d, exposed_o, unexposed_d,
                               unexposed_o)
        assert result.significant
        # Protective: the exposed group has fewer events than expected.
        assert result.observed_a < result.expected_a

    def test_null_effect_not_detected(self):
        exposed_d, exposed_o, unexposed_d, unexposed_o = \
            generate_survival_cohort(hazard_ratio=1.0, seed=5)
        result = log_rank_test(exposed_d, exposed_o, unexposed_d,
                               unexposed_o)
        assert result.p_value > 0.05

    def test_power_grows_with_effect(self):
        p_values = []
        for hazard_ratio in (0.9, 0.6, 0.3):
            exposed_d, exposed_o, unexposed_d, unexposed_o = \
                generate_survival_cohort(hazard_ratio=hazard_ratio, seed=6)
            result = log_rank_test(exposed_d, exposed_o, unexposed_d,
                                   unexposed_o)
            p_values.append(result.p_value)
        assert p_values[2] < p_values[0]

    def test_symmetry(self):
        exposed_d, exposed_o, unexposed_d, unexposed_o = \
            generate_survival_cohort(hazard_ratio=0.5, seed=7)
        ab = log_rank_test(exposed_d, exposed_o, unexposed_d, unexposed_o)
        ba = log_rank_test(unexposed_d, unexposed_o, exposed_d, exposed_o)
        assert ab.chi_square == pytest.approx(ba.chi_square, rel=1e-9)
        assert ab.p_value == pytest.approx(ba.p_value, rel=1e-9)

    def test_empty_group_rejected(self):
        with pytest.raises(ConfigurationError):
            log_rank_test([], [], [1.0], [True])

    def test_import_repro_leaves_scipy_stats_unloaded(self):
        # log_rank_test imports scipy.stats when first called; nothing
        # else needs it, so importing the platform must not load it.
        source_root = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print('scipy.stats' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": source_root},
            capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.strip() == "False"


class TestSurvivalCohort:
    def test_deterministic(self):
        a = generate_survival_cohort(seed=1)
        b = generate_survival_cohort(seed=1)
        assert np.array_equal(a[0], b[0])

    def test_censoring_applied(self):
        exposed_d, exposed_o, _, _ = generate_survival_cohort(
            censoring_time=10.0, seed=2)
        assert exposed_d.max() <= 10.0
        assert (~exposed_o).sum() > 0  # some subjects censored

    def test_protective_exposure_survives_longer(self):
        exposed_d, exposed_o, unexposed_d, unexposed_o = \
            generate_survival_cohort(hazard_ratio=0.4, seed=3)
        km = KaplanMeier()
        exposed_curve = km.fit(exposed_d, exposed_o)
        unexposed_curve = km.fit(unexposed_d, unexposed_o)
        assert (exposed_curve.probability_at(30.0)
                > unexposed_curve.probability_at(30.0))
