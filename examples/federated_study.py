"""A federated multi-institution study, end to end (repro.federation).

Four hospitals each hold a private EMR partition.  A researcher proposes
a DELT drug-effect study through the versioned ``/v1/studies`` gateway
API; the study needs 3-of-4 institutional approvals (recorded as
endorsed transactions on the provenance ledger) before a single byte may
move.  The analysis then runs as secure-aggregation rounds on the
compute scheduler: institutions upload only pairwise-masked, encrypted
partial statistics whose commitments land on the ledger — raw patient
rows never leave their home institution — and the coordinator's combined
result matches a centralized fit over the pooled consented cohort.

Run:  python examples/federated_study.py
"""

import numpy as np

from repro import HealthCloudPlatform
from repro.analytics import DeltModel
from repro.blockchain import ShardedBlockchainNetwork
from repro.compute import standard_scheduler
from repro.core.api import ApiRequest
from repro.federation import (
    DeltStudyConfig,
    FederatedStudyService,
    StudiesApi,
    StudyProposalRequest,
    build_institutions,
    consented_union,
)
from repro.rbac import (
    Action,
    ExternalIdentityProvider,
    Permission,
    Scope,
    ScopeKind,
)
from repro.workloads import generate_emr_cohort

GROUP = "hba1c-drug-effects"
N_DRUGS = 10


def main() -> None:
    platform = HealthCloudPlatform(seed=42, use_blockchain=False)
    context = platform.register_tenant("research-consortium")

    # Four hospitals, each holding a private slice of the cohort with
    # per-patient consent (about 90% of patients opt in at each site).
    cohort = generate_emr_cohort(n_patients=80, n_drugs=N_DRUGS,
                                 n_lowering=3, seed=42)
    hospitals = build_institutions(4, platform.clock, GROUP,
                                   patients=cohort.patients, seed=42,
                                   consent_rate=0.9)
    for hospital in hospitals:
        print(f"{hospital.name}: {hospital.n_patients} patients, "
              f"{len(hospital.consented_patients(GROUP))} consented")

    network = ShardedBlockchainNetwork(1, seed=42, clock=platform.clock,
                                       monitoring=platform.monitoring)
    scheduler = standard_scheduler(clock=platform.clock,
                                   monitoring=platform.monitoring)
    service = FederatedStudyService(
        clock=platform.clock, network=network, scheduler=scheduler,
        institutions=hospitals, monitoring=platform.monitoring, seed=42,
        delt_config=DeltStudyConfig(n_drugs=N_DRUGS, max_iterations=5))
    gateway = platform.build_api_gateway(studies=StudiesApi(service))

    researcher = platform.rbac.register_user(context.tenant.tenant_id,
                                             "pi")
    scope = Scope(ScopeKind.TENANT, context.tenant.tenant_id)
    platform.rbac.define_role("study-lead", [
        Permission(Action.READ, "studies", scope),
        Permission(Action.WRITE, "studies", scope),
    ])
    platform.rbac.bind_role(researcher.user_id, context.default_org.org_id,
                            context.default_env.env_id, "study-lead")
    idp = ExternalIdentityProvider("consortium-idp", b"consortium-key-01",
                                   platform.clock)
    platform.federation.approve_idp("consortium-idp", b"consortium-key-01")
    platform.federation.link_identity("consortium-idp", "pi@consortium",
                                      researcher.user_id)

    def call(path, **params):
        return gateway.dispatch(ApiRequest(
            path=path, token=idp.issue_token("pi@consortium"),
            scope_entity_id=context.tenant.tenant_id,
            org_id=context.default_org.org_id,
            env_id=context.default_env.env_id, params=params))

    # -- propose: 3-of-4 threshold approval required -----------------------
    proposal = StudyProposalRequest(
        analysis="delt", group_id=GROUP,
        participants=tuple(h.name for h in hospitals), threshold=3)
    study_id = call("/studies/propose", request=proposal).body["study_id"]
    print(f"\nproposed {study_id}: DELT over {GROUP!r}, "
          f"3-of-4 approvals required")

    # Running now is refused — the ledger shows no approvals yet.
    premature = call("/studies/run", study_id=study_id)
    print(f"run before approval -> HTTP {premature.status} "
          f"({premature.body['error']})")

    for hospital in hospitals[:3]:
        state = call("/studies/approve", study_id=study_id,
                     institution=hospital.name).body["state"]
        print(f"  {hospital.name} approved on-ledger -> {state}")

    # -- run: secure-aggregation rounds on the compute scheduler -----------
    summary = call("/studies/run", study_id=study_id).body
    print(f"\nstudy {summary['state']} after {summary['rounds']} "
          f"aggregation rounds ({len(summary['job_ids'])} compute jobs); "
          f"result digest {summary['result_digest'][:16]}...")

    effects = np.array(call("/studies/result",
                            study_id=study_id).body["effects"])
    pooled, _ = consented_union(hospitals, GROUP)
    centralized = DeltModel(n_drugs=N_DRUGS,
                            max_iterations=5).fit(pooled).effects
    diff = float(np.max(np.abs(effects - centralized)))
    print(f"federated vs centralized over {len(pooled)} pooled consented "
          f"patients: max abs diff {diff:.2e}")

    # -- the trust-boundary audit ------------------------------------------
    commitments = service.ledger_commitments(study_id)
    kinds = {r.kind for h in hospitals for r in h.egress_log}
    print(f"\nledger holds {len(commitments)} endorsed upload commitments "
          f"({summary['rounds']} rounds x 4 institutions)")
    print(f"egress audit across all hospitals: kinds={sorted(kinds)} "
          f"(raw patient rows never left any institution)")


if __name__ == "__main__":
    main()
