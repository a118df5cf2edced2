"""Shared benchmark fixtures and helpers.

Each benchmark measures the claim behind one paper figure (see
EXPERIMENTS.md).  Conventions:

* wall-clock cost of the core computation goes through the ``benchmark``
  fixture (pytest-benchmark);
* experiment-level results (simulated latencies, AUCs, ratios) are
  attached to ``benchmark.extra_info`` so ``--benchmark-json`` captures
  them, and printed so a plain run shows the reproduced series;
* every benchmark *asserts the expected shape* (who wins, roughly by how
  much), making the harness double as a reproduction check.
"""

from __future__ import annotations

import pytest

from repro.knowledge.synthetic import generate_universe
from repro.workloads.emr import generate_emr_cohort


@pytest.fixture(scope="session")
def universe():
    return generate_universe(n_drugs=80, n_diseases=60, n_genes=100,
                             n_abstracts=200, seed=7)


@pytest.fixture(scope="session")
def emr_cohort():
    return generate_emr_cohort(n_patients=400, n_drugs=30, n_lowering=5,
                               seed=13)


@pytest.fixture(scope="session")
def clean_emr_cohort():
    return generate_emr_cohort(n_patients=400, n_drugs=30, n_lowering=5,
                               seed=13, confounders=False)


def show(title: str, rows: list) -> None:
    """Print a small results table under the benchmark output."""
    print(f"\n=== {title}")
    for row in rows:
        print("   ", row)
