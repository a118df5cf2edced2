"""Integration: the versioned /v1/studies API through the gateway.

End-to-end dispatch with RBAC (researchers propose/run, readers poll),
strict tenant isolation (foreign studies read as 404), lifecycle
violations as 409, envelope validation as 422, and audit entries for
every verb.
"""

import pytest

from repro import HealthCloudPlatform
from repro.blockchain import ShardedBlockchainNetwork
from repro.compute import standard_scheduler
from repro.core.api import ApiRequest
from repro.federation import (
    DeltStudyConfig,
    FederatedStudyService,
    StudiesApi,
    StudyProposalRequest,
    build_institutions,
)
from repro.rbac import (
    Action,
    ExternalIdentityProvider,
    Permission,
    Scope,
    ScopeKind,
)
from repro.workloads.emr import generate_emr_cohort

GROUP = "grp-api"
PARTICIPANTS = ("inst-00", "inst-01", "inst-02")


def proposal(**overrides):
    base = dict(analysis="delt", group_id=GROUP,
                participants=PARTICIPANTS, threshold=2)
    base.update(overrides)
    return StudyProposalRequest(**base)


@pytest.fixture
def world():
    platform = HealthCloudPlatform(seed=77, use_blockchain=False)
    cohort = generate_emr_cohort(n_patients=24, n_drugs=6, n_lowering=2,
                                 seed=7)
    institutions = build_institutions(3, platform.clock, GROUP,
                                      patients=cohort.patients, seed=7)
    network = ShardedBlockchainNetwork(1, seed=77, clock=platform.clock,
                                       monitoring=platform.monitoring)
    scheduler = standard_scheduler(clock=platform.clock,
                                   monitoring=platform.monitoring)
    service = FederatedStudyService(
        clock=platform.clock, network=network, scheduler=scheduler,
        institutions=institutions, monitoring=platform.monitoring,
        seed=77, delt_config=DeltStudyConfig(n_drugs=6, max_iterations=2))
    gateway = platform.build_api_gateway(studies=StudiesApi(service))

    idp = ExternalIdentityProvider("lab-idp", b"lab-key-0123456789",
                                   platform.clock)
    platform.federation.approve_idp("lab-idp", b"lab-key-0123456789")

    def make_user(tenant_context, name, actions):
        user = platform.rbac.register_user(
            tenant_context.tenant.tenant_id, name)
        scope = Scope(ScopeKind.TENANT, tenant_context.tenant.tenant_id)
        role = f"{name}-role"
        platform.rbac.define_role(role, [
            Permission(action, "studies", scope) for action in actions])
        platform.rbac.bind_role(user.user_id,
                                tenant_context.default_org.org_id,
                                tenant_context.default_env.env_id, role)
        platform.federation.link_identity("lab-idp", f"{name}@lab",
                                          user.user_id)
        return user

    lab = platform.register_tenant("research-lab")
    clinic = platform.register_tenant("clinic")
    make_user(lab, "researcher", [Action.READ, Action.WRITE])
    make_user(lab, "reader", [Action.READ])
    make_user(clinic, "outsider", [Action.READ, Action.WRITE])

    def call(name, tenant_context, path, **params):
        token = idp.issue_token(f"{name}@lab")
        return gateway.dispatch(ApiRequest(
            path=path, token=token,
            scope_entity_id=tenant_context.tenant.tenant_id,
            org_id=tenant_context.default_org.org_id,
            env_id=tenant_context.default_env.env_id, params=params))

    return platform, service, gateway, lab, clinic, call


def propose_and_approve(call, lab, threshold=2):
    study_id = call("researcher", lab, "/studies/propose",
                    request=proposal(threshold=threshold)
                    ).body["study_id"]
    for name in PARTICIPANTS[:threshold]:
        call("researcher", lab, "/studies/approve", study_id=study_id,
             institution=name)
    return study_id


class TestDispatch:
    def test_routes_registered_versioned(self, world):
        gateway = world[2]
        routes = set(gateway.routes())
        assert {"/v1/studies/propose", "/v1/studies/approve",
                "/v1/studies/deny", "/v1/studies/run",
                "/v1/studies/status", "/v1/studies/result"} <= routes

    def test_full_lifecycle_end_to_end(self, world):
        platform, service, gateway, lab, clinic, call = world
        response = call("researcher", lab, "/studies/propose",
                        request=proposal())
        assert response.status == 200
        study_id = response.body["study_id"]
        assert response.body["state"] == "proposed"

        first = call("researcher", lab, "/studies/approve",
                     study_id=study_id, institution="inst-00")
        assert first.body["state"] == "proposed"
        second = call("researcher", lab, "/studies/approve",
                      study_id=study_id, institution="inst-01")
        assert second.body["state"] == "approved"
        assert second.body["approvals"] == ["inst-00", "inst-01"]

        run = call("researcher", lab, "/studies/run", study_id=study_id)
        assert run.status == 200
        assert run.body["state"] == "complete"
        assert run.body["rounds"] >= 2

        result = call("reader", lab, "/studies/result", study_id=study_id)
        assert result.status == 200
        assert result.body["analysis"] == "delt"
        assert len(result.body["effects"]) == 6

    def test_run_before_threshold_conflicts(self, world):
        *_, lab, clinic, call = world
        study_id = call("researcher", lab, "/studies/propose",
                        request=proposal()).body["study_id"]
        call("researcher", lab, "/studies/approve", study_id=study_id,
             institution="inst-00")
        response = call("researcher", lab, "/studies/run",
                        study_id=study_id)
        assert response.status == 409

    def test_deny_conflicts_after_approved(self, world):
        *_, lab, clinic, call = world
        study_id = propose_and_approve(call, lab)
        response = call("researcher", lab, "/studies/deny",
                        study_id=study_id, institution="inst-02")
        assert response.status == 409

    def test_envelope_validation(self, world):
        *_, lab, clinic, call = world
        assert call("researcher", lab, "/studies/propose",
                    request={"analysis": "delt"}).status == 422
        assert call("researcher", lab, "/studies/propose",
                    request=proposal(threshold=9)).status == 422
        assert call("researcher", lab, "/studies/propose",
                    request=proposal(analysis="magic")).status == 422

    def test_result_before_run_conflicts(self, world):
        *_, lab, clinic, call = world
        study_id = propose_and_approve(call, lab)
        response = call("reader", lab, "/studies/result",
                        study_id=study_id)
        assert response.status == 409


class TestAccessControl:
    def test_reader_cannot_propose_or_run(self, world):
        *_, lab, clinic, call = world
        assert call("reader", lab, "/studies/propose",
                    request=proposal()).status == 403
        study_id = propose_and_approve(call, lab)
        assert call("reader", lab, "/studies/run",
                    study_id=study_id).status == 403

    def test_reader_can_poll(self, world):
        *_, lab, clinic, call = world
        study_id = propose_and_approve(call, lab)
        assert call("reader", lab, "/studies/status",
                    study_id=study_id).status == 200

    def test_tenant_isolation_reads_as_404(self, world):
        *_, lab, clinic, call = world
        study_id = propose_and_approve(call, lab)
        for path in ("/studies/status", "/studies/run", "/studies/result"):
            response = call("outsider", clinic, path, study_id=study_id)
            assert response.status == 404, path
        approve = call("outsider", clinic, "/studies/approve",
                       study_id=study_id, institution="inst-02")
        assert approve.status == 404

    def test_unknown_study_reads_as_404(self, world):
        *_, lab, clinic, call = world
        assert call("reader", lab, "/studies/status",
                    study_id="study-999999").status == 404


class TestAudit:
    def test_every_verb_leaves_an_audit_entry(self, world):
        platform, service, gateway, lab, clinic, call = world
        study_id = propose_and_approve(call, lab)
        call("researcher", lab, "/studies/run", study_id=study_id)
        call("reader", lab, "/studies/status", study_id=study_id)
        entries = [e.message for e in platform.monitoring.logs.entries("audit")
                   if study_id in e.message]
        assert any("proposed" in m for m in entries)
        assert any("approval recorded" in m for m in entries)
        assert any("run" in m for m in entries)
        assert any("status read" in m for m in entries)

    def test_audit_lines_keep_the_shared_format(self, world):
        platform, service, gateway, lab, clinic, call = world
        study_id = propose_and_approve(call, lab)
        call("researcher", lab, "/studies/run", study_id=study_id)
        call("reader", lab, "/studies/status", study_id=study_id)
        assert [e.message for e in platform.monitoring.logs.entries("audit")
                if e.message.startswith("study")] == [
            "study study-000001 proposed by user user-821bb04942d2 "
            "tenant tenant-9370128a432d request req-00000001 "
            "analysis=delt threshold=2-of-3",
            "study study-000001 approval recorded by user user-821bb04942d2 "
            "tenant tenant-9370128a432d request req-00000002 "
            "institution=inst-00 state=proposed",
            "study study-000001 approval recorded by user user-821bb04942d2 "
            "tenant tenant-9370128a432d request req-00000003 "
            "institution=inst-01 state=approved",
            "study study-000001 run by user user-821bb04942d2 "
            "tenant tenant-9370128a432d request req-00000004 "
            "rounds=4 digest=4948db79c1617b16",
            "study study-000001 status read by user user-1f43b7d0582e "
            "tenant tenant-9370128a432d request req-00000005",
        ]
