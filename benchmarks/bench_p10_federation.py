"""P10: federated multi-institution analytics (repro.federation).

A federated DELT study is driven end to end across fleets of 2..8
institutions, and every trust-boundary claim of the federation layer is
measured:

* **threshold enforcement** — running (or sneaking an upload commitment
  onto the ledger) before M-of-N approvals must be refused; the first
  accepted commitment sees exactly M on-ledger approvals;
* **closeness** — the federated DELT effects match a centralized fit
  over the pooled consented cohort within rtol 1e-2 (in practice ~1e-7),
  and federated JMF is bit-identical to centralized;
* **trust boundary** — the only egress any institution records is
  ``masked-partial`` ciphertext, and every egress commitment appears as
  an endorsed ledger transaction (zero raw rows cross the boundary);
* **chaos** — a FaultPlan drops one institution's uplink mid-study; the
  delivery phase retries with capped backoff and the study completes;
* **attribution** — the study trace's critical path sums to exactly
  100% across federation/compute/blockchain layers;
* **determinism** — the entire scenario, run twice in-process, emits
  byte-identical JSON.

Standalone mode for CI::

    PYTHONPATH=src python benchmarks/bench_p10_federation.py --quick
"""

import argparse
import json

import numpy as np
import pytest

from repro.analytics.delt import DeltModel
from repro.analytics.jmf import JointMatrixFactorization
from repro.analytics.similarity import (
    DiseaseSimilarityBuilder,
    DrugSimilarityBuilder,
)
from repro.blockchain.sharding import ShardedBlockchainNetwork
from repro.cloudsim.clock import SimClock
from repro.cloudsim.faults import FaultPlan
from repro.cloudsim.monitoring import MonitoringService
from repro.cloudsim.tracing import Tracer
from repro.compute.scheduler import standard_scheduler
from repro.core.errors import EndorsementError, StudyError
from repro.federation import (
    COORDINATOR_ID,
    DeltStudyConfig,
    FederatedStudyService,
    JmfStudyConfig,
    build_institutions,
    consented_union,
)
from repro.federation.cohorts import synthesize_evidence
from repro.knowledge.synthetic import generate_universe
from repro.workloads.emr import generate_emr_cohort

try:
    from conftest import show
except ImportError:  # standalone main(), outside pytest's conftest path
    def show(title, rows):
        print(f"\n=== {title}")
        for row in rows:
            print("   ", row)

SEED = 10
GROUP = "grp-p10"
N_DRUGS = 8
RTOL_FLOOR = 1e-2               # acceptance: federated within 1e-2
CHAOS_N = 4                     # institutions in the chaos scenario
CHAOS_WINDOW_S = 1.2            # how long inst-00's uplink stays down

FLEETS = {"full": (2, 4, 8), "quick": (2, 4)}
N_PATIENTS = {"full": 64, "quick": 32}
DELT_ITERATIONS = {"full": 4, "quick": 2}


def _world(n_institutions, mode, chaos=False):
    clock = SimClock()
    monitoring = MonitoringService(clock)
    tracer = Tracer(clock)
    cohort = generate_emr_cohort(n_patients=N_PATIENTS[mode],
                                 n_drugs=N_DRUGS, n_lowering=2, seed=SEED)
    institutions = build_institutions(
        n_institutions, clock, GROUP, patients=cohort.patients,
        seed=SEED, consent_rate=0.9)
    if chaos:
        plan = FaultPlan(seed=SEED, clock=clock, monitoring=monitoring)
        plan.drop_link("inst-00", "coordinator", 1.0,
                       start_s=0.0, end_s=CHAOS_WINDOW_S)
        institutions[0].fault_plan = plan
    network = ShardedBlockchainNetwork(2, seed=SEED, clock=clock,
                                       monitoring=monitoring)
    scheduler = standard_scheduler(clock=clock, monitoring=monitoring)
    service = FederatedStudyService(
        clock=clock, network=network, scheduler=scheduler,
        institutions=institutions, monitoring=monitoring, seed=SEED,
        delt_config=DeltStudyConfig(
            n_drugs=N_DRUGS, max_iterations=DELT_ITERATIONS[mode]))
    return service, institutions, network, tracer


def _drive_study(service, network, participants, threshold):
    """Propose, verify pre-approval refusals, approve exactly M, run."""
    opened = service.propose(
        tenant_id="tenant-bench", researcher="user-bench",
        analysis="delt", group_id=GROUP, participants=participants,
        threshold=threshold)
    study_id = opened["study_id"]

    # Trust boundary, part 1: nothing runs or lands before M approvals.
    run_refused = False
    try:
        service.run(study_id)
    except StudyError:
        run_refused = True
    commitment_refused = False
    try:
        network.channel_for(study_id).invoke(
            COORDINATOR_ID, "study", "record_commitment",
            study_id=study_id, round_tag="sneak", institution=participants[0],
            commitment="deadbeef", committed_at=0.0)
    except EndorsementError:
        commitment_refused = True
    premature_commitments = len(service.ledger_commitments(study_id))

    for name in participants[:threshold]:
        service.approve(study_id, name)
    summary = service.run(study_id)
    return study_id, summary, {
        "pre_approval_run_refused": run_refused,
        "pre_approval_commitment_refused": commitment_refused,
        "premature_commitments": premature_commitments,
    }


def _egress_audit(service, institutions, study_id, summary, participants):
    """Zero raw rows cross the boundary; every egress is on the ledger."""
    on_ledger = {c["commitment"]
                 for c in service.ledger_commitments(study_id).values()}
    kinds = set()
    egress_records = 0
    unmatched = 0
    for institution in institutions:
        for record in institution.egress_log:
            if record.study_id != study_id:
                continue
            kinds.add(record.kind)
            egress_records += 1
            if record.commitment not in on_ledger:
                unmatched += 1
    approvals = service.ledger_status(study_id)["approvals"]
    return {
        "egress_kinds": sorted(kinds),
        "egress_records": egress_records,
        "egress_without_ledger_commitment": unmatched,
        "ledger_commitments": len(on_ledger),
        "expected_commitments": summary["rounds"] * len(participants),
        "approvals_on_ledger": len(approvals),
    }


def _trace_attribution(tracer, summary):
    path = tracer.critical_path(summary["trace_id"])
    percentages = path.layer_percentages()
    return {
        "layers": sorted(percentages),
        "critical_path_pct": {k: round(v, 9)
                              for k, v in sorted(percentages.items())},
        "critical_path_pct_sum": round(sum(percentages.values()), 9),
        "trace_verified": tracer.verify_trace(summary["trace_id"]),
    }


def _fleet_sweep(mode):
    """The headline sweep: a DELT study at each fleet size."""
    out = {}
    for n in FLEETS[mode]:
        service, institutions, network, tracer = _world(n, mode)
        participants = [inst.name for inst in institutions]
        threshold = max(1, n - 1)
        study_id, summary, enforcement = _drive_study(
            service, network, participants, threshold)

        federated = service.result_object(study_id).effects
        pooled, _ = consented_union(institutions, GROUP)
        centralized = DeltModel(
            n_drugs=N_DRUGS,
            max_iterations=DELT_ITERATIONS[mode]).fit(pooled).effects
        scale = np.maximum(np.abs(centralized), 1e-9)
        max_rel_diff = float(np.max(np.abs(federated - centralized) / scale))

        out[str(n)] = {
            "threshold": threshold,
            "rounds": summary["rounds"],
            "pooled_patients": len(pooled),
            "max_rel_diff": round(max_rel_diff, 12),
            "within_rtol": max_rel_diff <= RTOL_FLOOR,
            **enforcement,
            **_egress_audit(service, institutions, study_id, summary,
                            participants),
            **_trace_attribution(tracer, summary),
        }
    return out


def _jmf_case(mode):
    """Federated JMF is bit-identical to the centralized fit."""
    universe = generate_universe(n_drugs=16, n_diseases=12, n_genes=30,
                                 n_abstracts=60, seed=SEED)
    service, institutions, network, tracer = _world(4, mode)
    patient_ids = [f"pt-{i:03d}" for i in range(32)]
    for index, institution in enumerate(institutions):
        local_ids = patient_ids[index::4]
        institution._evidence = synthesize_evidence(
            universe.association_matrix, local_ids, seed=SEED + index)
        for pid in local_ids:
            institution.grant_consent(pid, GROUP)
    drug_sims = DrugSimilarityBuilder(universe).all_sources()
    disease_sims = DiseaseSimilarityBuilder(universe).all_sources()
    service.jmf_config = JmfStudyConfig(
        n_drugs=16, n_diseases=12, drug_similarities=drug_sims,
        disease_similarities=disease_sims,
        jmf_kwargs={"rank": 4, "max_iterations": 30, "seed": 5})

    participants = [inst.name for inst in institutions]
    opened = service.propose(
        tenant_id="tenant-bench", researcher="user-bench",
        analysis="jmf", group_id=GROUP, participants=participants,
        threshold=3)
    study_id = opened["study_id"]
    for name in participants[:3]:
        service.approve(study_id, name)
    summary = service.run(study_id)
    federated = service.result_object(study_id)

    counts = np.zeros((16, 12))
    for institution in institutions:
        counts += institution.jmf_counts(GROUP, 16, 12).reshape(16, 12)
    centralized = JointMatrixFactorization(
        rank=4, max_iterations=30, seed=5).fit(
            (counts >= 1.0).astype(float), drug_sims, disease_sims)
    max_abs_diff = float(np.max(np.abs(
        federated.scores() - centralized.scores())))
    return {
        "rounds": summary["rounds"],
        "max_abs_diff": round(max_abs_diff, 12),
        "bit_identical": max_abs_diff == 0.0,
        **_trace_attribution(tracer, summary),
    }


def _chaos_case(mode):
    """One institution's uplink drops mid-study; delivery retries win."""
    service, institutions, network, tracer = _world(CHAOS_N, mode,
                                                    chaos=True)
    participants = [inst.name for inst in institutions]
    _, summary, enforcement = _drive_study(service, network, participants,
                                           threshold=CHAOS_N - 1)
    plan = institutions[0].fault_plan
    retry_metric = service.monitoring.metrics.counter(
        "resilience.uplink.inst-00.retries")
    return {
        "state": summary["state"],
        "rounds": summary["rounds"],
        "upload_retries": summary["upload_retries"],
        "retry_metric": retry_metric,
        "link_drops": plan.counters.get("link_drop", 0),
        **enforcement,
        **_trace_attribution(tracer, summary),
    }


def _run_scenario(mode):
    return {
        "mode": mode,
        "sweep": _fleet_sweep(mode),
        "jmf": _jmf_case(mode),
        "chaos": _chaos_case(mode),
    }


@pytest.mark.benchmark(group="p10-federation")
def test_p10_threshold_enforced_across_fleets(benchmark):
    """Acceptance: every fleet refuses runs/commitments before M-of-N."""
    sweep = _fleet_sweep("quick")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    show("P10: M-of-N threshold enforcement",
         [f"{n} institutions (M={r['threshold']}): run refused "
          f"{r['pre_approval_run_refused']}, commitment refused "
          f"{r['pre_approval_commitment_refused']}, approvals on ledger "
          f"{r['approvals_on_ledger']}" for n, r in sweep.items()])
    for result in sweep.values():
        assert result["pre_approval_run_refused"]
        assert result["pre_approval_commitment_refused"]
        assert result["premature_commitments"] == 0
        assert result["approvals_on_ledger"] == result["threshold"]


@pytest.mark.benchmark(group="p10-federation")
def test_p10_federated_matches_centralized(benchmark):
    """Acceptance: federated DELT within rtol 1e-2; JMF bit-identical."""
    sweep = _fleet_sweep("quick")
    jmf = _jmf_case("quick")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    show("P10: federated vs centralized",
         [f"{n} institutions: max rel diff {r['max_rel_diff']:.2e} over "
          f"{r['pooled_patients']} pooled patients"
          for n, r in sweep.items()] +
         [f"JMF: max abs diff {jmf['max_abs_diff']:.1e} "
          f"(bit-identical: {jmf['bit_identical']})"])
    for result in sweep.values():
        assert result["within_rtol"]
        assert result["max_rel_diff"] <= RTOL_FLOOR
    assert jmf["bit_identical"]


@pytest.mark.benchmark(group="p10-federation")
def test_p10_trust_boundary_audit(benchmark):
    """Acceptance: only masked partials egress, all committed on-ledger."""
    sweep = _fleet_sweep("quick")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    show("P10: egress audit",
         [f"{n} institutions: {r['egress_records']} egress records, kinds "
          f"{r['egress_kinds']}, {r['ledger_commitments']} ledger "
          f"commitments" for n, r in sweep.items()])
    for result in sweep.values():
        assert result["egress_kinds"] == ["masked-partial"]
        assert result["egress_without_ledger_commitment"] == 0
        assert result["ledger_commitments"] == \
            result["expected_commitments"]


@pytest.mark.benchmark(group="p10-federation")
def test_p10_chaos_retries_and_attribution(benchmark):
    """Acceptance: link-drop chaos is retried; attribution sums to 100%."""
    chaos = _chaos_case("quick")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    show("P10: chaos on inst-00's uplink",
         [f"state {chaos['state']} after {chaos['upload_retries']} "
          f"delivery retries ({chaos['link_drops']} drops injected)",
          f"critical path sums to {chaos['critical_path_pct_sum']:.1f}% "
          f"across {chaos['layers']}"])
    assert chaos["state"] == "complete"
    assert chaos["upload_retries"] > 0
    assert chaos["retry_metric"] == chaos["upload_retries"]
    assert abs(chaos["critical_path_pct_sum"] - 100.0) < 1e-9
    assert chaos["trace_verified"]
    assert "federation" in chaos["layers"]


@pytest.mark.benchmark(group="p10-federation")
def test_p10_scenario_is_deterministic(benchmark):
    """Acceptance: the whole scenario twice, identical JSON."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    first = json.dumps(_run_scenario("quick"), sort_keys=True)
    second = json.dumps(_run_scenario("quick"), sort_keys=True)
    show("P10: determinism", [f"payload bytes: {len(first)}",
                              f"identical re-run: {first == second}"])
    assert first == second


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Federated-analytics benchmark (writes JSON for CI)")
    parser.add_argument("--quick", action="store_true",
                        help="fleets of 2/4 instead of 2/4/8")
    parser.add_argument("--output", default="BENCH_federation.json")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    results = {"quick": args.quick, **_run_scenario(mode)}
    second = {"quick": args.quick, **_run_scenario(mode)}
    results["deterministic"] = (
        json.dumps(results, sort_keys=True)
        == json.dumps(second, sort_keys=True))

    sweep = results["sweep"]
    for n, r in sweep.items():
        print(f"{n} institutions (M={r['threshold']}): "
              f"{r['rounds']} rounds, max rel diff {r['max_rel_diff']:.2e}, "
              f"{r['ledger_commitments']} commitments, egress kinds "
              f"{r['egress_kinds']}")
    jmf, chaos = results["jmf"], results["chaos"]
    print(f"JMF bit-identical: {jmf['bit_identical']} "
          f"(max abs diff {jmf['max_abs_diff']:.1e})")
    print(f"chaos: {chaos['state']} after {chaos['upload_retries']} "
          f"delivery retries; attribution sums to "
          f"{chaos['critical_path_pct_sum']:.1f}%")
    print(f"deterministic: {results['deterministic']}")

    for r in sweep.values():
        assert r["pre_approval_run_refused"]
        assert r["pre_approval_commitment_refused"]
        assert r["premature_commitments"] == 0
        assert r["approvals_on_ledger"] == r["threshold"]
        assert r["within_rtol"] and r["max_rel_diff"] <= RTOL_FLOOR
        assert r["egress_kinds"] == ["masked-partial"]
        assert r["egress_without_ledger_commitment"] == 0
        assert r["ledger_commitments"] == r["expected_commitments"]
        assert abs(r["critical_path_pct_sum"] - 100.0) < 1e-9
        assert r["trace_verified"]
    assert jmf["bit_identical"]
    assert chaos["state"] == "complete" and chaos["upload_retries"] > 0
    assert results["deterministic"]

    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    return results


if __name__ == "__main__":
    main()
