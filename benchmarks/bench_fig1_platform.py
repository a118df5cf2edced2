"""E1 (Fig. 1): end-to-end platform ingestion throughput and stage split.

The conceptual-architecture figure's claim is that the full pipeline —
decrypt, validate, scan, consent, de-identify, store, with provenance on
the ledger — composes into a working platform.  We ingest a batch of
bundles and report wall-clock throughput plus the simulated per-stage
latency split.
"""

import pytest

from repro import HealthCloudPlatform
from repro.fhir import Bundle, Observation, Patient
from repro.ingestion import encrypt_bundle_for_upload

from conftest import show

N_BUNDLES = 40


def _build_platform(with_blockchain: bool):
    platform = HealthCloudPlatform(seed=11, use_blockchain=with_blockchain)
    context = platform.register_tenant("bench")
    group = platform.rbac.create_group(context.tenant.tenant_id, "study")
    registration = platform.ingestion.register_client("bench-client")
    envelopes = []
    for i in range(N_BUNDLES):
        pid = f"pt-{i:04d}"
        platform.consent.grant(pid, group.group_id)
        bundle = Bundle(id=f"b-{i}")
        bundle.add(Patient(id=pid, name={"family": f"F{i}"},
                           birthDate="1975-05-05", gender="female",
                           address={"state": "NY"}))
        bundle.add(Observation(id=f"{pid}-o", code={"text": "HbA1c"},
                               subject=f"Patient/{pid}",
                               valueQuantity={"value": 6.5, "unit": "%"}))
        envelopes.append(encrypt_bundle_for_upload(bundle, registration))
    return platform, group, envelopes


def _ingest_all(platform, group, envelopes):
    for i, envelope in enumerate(envelopes):
        platform.ingestion.upload("bench-client", envelope, group.group_id)
    platform.run_ingestion()
    return platform


@pytest.mark.benchmark(group="fig1-platform")
def test_fig1_end_to_end_ingestion(benchmark):
    """Throughput of the full pipeline with every layer on."""

    def run():
        platform, group, envelopes = _build_platform(with_blockchain=True)
        return _ingest_all(platform, group, envelopes)

    platform = benchmark.pedantic(run, rounds=3, iterations=1)

    stored = platform.monitoring.metrics.counter("ingestion.stored")
    assert stored == N_BUNDLES  # everything made it through

    latency = platform.monitoring.metrics.summary("ingestion.latency")
    stage_costs = {
        "decrypt": 4e-3, "validate": 2e-3, "scan": 3e-3,
        "consent": 1e-3, "deidentify": 2e-3, "store": 5e-3,
    }
    benchmark.extra_info["bundles"] = N_BUNDLES
    benchmark.extra_info["sim_latency_p50_ms"] = latency["p50"] * 1e3
    show("E1: pipeline stage split (simulated ms per bundle)",
         [f"{stage}: {cost * 1e3:.0f}" for stage, cost in stage_costs.items()]
         + [f"total p50: {latency['p50'] * 1e3:.1f} ms"])


@pytest.mark.benchmark(group="fig1-platform")
def test_fig1_ingestion_without_blockchain(benchmark):
    """Same pipeline with provenance off — isolates the ledger's cost."""

    def run():
        platform, group, envelopes = _build_platform(with_blockchain=False)
        return _ingest_all(platform, group, envelopes)

    platform = benchmark.pedantic(run, rounds=3, iterations=1)
    assert platform.monitoring.metrics.counter("ingestion.stored") == N_BUNDLES
