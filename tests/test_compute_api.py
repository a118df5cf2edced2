"""Integration: the versioned /v1/compute job API through the gateway.

End-to-end dispatch with RBAC (researchers submit, readers poll), strict
tenant isolation, per-route rate limits, audit entries carrying job ids,
and lifecycle events observable on the health plane.
"""

import pytest

from repro import HealthCloudPlatform
from repro.cloudsim.healthplane import HealthPlane
from repro.compute import ComputeApi, JobSubmitRequest, TaskGraph
from repro.compute import standard_scheduler
from repro.compute.api import SUBMIT_RATE_LIMIT
from repro.core.api import ApiRequest
from repro.rbac import (
    Action,
    ExternalIdentityProvider,
    Permission,
    Scope,
    ScopeKind,
)


def tiny_graph(name="tiny"):
    g = TaskGraph(name)
    g.add_data("x", 5, nbytes=64)
    g.add_task("double", lambda ins: ins["x"] * 2, inputs=("x",),
               cost_s=0.01)
    return g


@pytest.fixture
def world():
    platform = HealthCloudPlatform(seed=88, use_blockchain=False)
    plane = HealthPlane(platform.monitoring)
    scheduler = standard_scheduler(clock=platform.clock,
                                   monitoring=platform.monitoring)
    api = ComputeApi(scheduler)
    gateway = platform.build_api_gateway(compute=api)

    idp = ExternalIdentityProvider("lab-idp", b"lab-key-0123456789",
                                   platform.clock)
    platform.federation.approve_idp("lab-idp", b"lab-key-0123456789")

    def make_user(tenant_context, name, actions):
        user = platform.rbac.register_user(
            tenant_context.tenant.tenant_id, name)
        scope = Scope(ScopeKind.TENANT, tenant_context.tenant.tenant_id)
        role = f"{name}-role"
        platform.rbac.define_role(role, [
            Permission(action, "compute-jobs", scope) for action in actions])
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

    return platform, plane, scheduler, gateway, lab, clinic, call


class TestDispatch:
    def test_routes_registered_versioned(self, world):
        gateway = world[3]
        routes = set(gateway.routes())
        assert {"/v1/compute/submit", "/v1/compute/status",
                "/v1/compute/result", "/v1/compute/cancel"} <= routes

    def test_submit_status_result_end_to_end(self, world):
        platform, plane, scheduler, gateway, lab, clinic, call = world
        response = call("researcher", lab, "/compute/submit",
                        request=JobSubmitRequest(graph=tiny_graph()))
        assert response.status == 200
        job_id = response.body["job_id"]
        assert response.body["state"] == "succeeded"

        status = call("researcher", lab, "/compute/status", job_id=job_id)
        assert status.status == 200
        assert status.body["tasks"] == {"pending": 0, "ready": 0,
                                        "running": 0, "succeeded": 1}
        assert status.body["makespan_s"] > 0

        result = call("researcher", lab, "/compute/result", job_id=job_id)
        assert result.status == 200
        assert result.body["outputs"] == {"double": 10}

        single = call("researcher", lab, "/compute/result", job_id=job_id,
                      key="double")
        assert single.body["outputs"] == {"double": 10}

    def test_submit_validates_envelope(self, world):
        *_, lab, clinic, call = world
        response = call("researcher", lab, "/compute/submit",
                        request={"graph": "nope"})
        assert response.status == 422

    def test_cancel_of_terminal_job_conflicts(self, world):
        *_, lab, clinic, call = world
        job_id = call("researcher", lab, "/compute/submit",
                      request=JobSubmitRequest(graph=tiny_graph())
                      ).body["job_id"]
        response = call("researcher", lab, "/compute/cancel", job_id=job_id)
        assert response.status == 409


class TestAccessControl:
    def test_reader_cannot_submit(self, world):
        *_, lab, clinic, call = world
        response = call("reader", lab, "/compute/submit",
                        request=JobSubmitRequest(graph=tiny_graph()))
        assert response.status == 403

    def test_reader_can_poll(self, world):
        *_, lab, clinic, call = world
        job_id = call("researcher", lab, "/compute/submit",
                      request=JobSubmitRequest(graph=tiny_graph())
                      ).body["job_id"]
        assert call("reader", lab, "/compute/status",
                    job_id=job_id).status == 200

    def test_tenant_isolation_reads_as_404(self, world):
        *_, lab, clinic, call = world
        job_id = call("researcher", lab, "/compute/submit",
                      request=JobSubmitRequest(graph=tiny_graph())
                      ).body["job_id"]
        for path in ("/compute/status", "/compute/result",
                     "/compute/cancel"):
            response = call("outsider", clinic, path, job_id=job_id)
            assert response.status == 404, path

    def test_submit_rate_limit_applies_per_route(self, world):
        platform, plane, scheduler, gateway, lab, clinic, call = world
        scheduler_api_calls = []
        for i in range(SUBMIT_RATE_LIMIT):
            response = call("researcher", lab, "/compute/submit",
                            request=JobSubmitRequest(
                                graph=tiny_graph(f"g{i}")))
            scheduler_api_calls.append(response.status)
        assert set(scheduler_api_calls) == {200}
        throttled = call("researcher", lab, "/compute/submit",
                         request=JobSubmitRequest(graph=tiny_graph("over")))
        assert throttled.status == 429
        # The gateway-wide budget still has room: reads are fine.
        assert call("reader", lab, "/compute/status",
                    job_id="job-000001").status == 200


class TestAuditAndHealth:
    def test_audit_log_threads_job_ids(self, world):
        platform, *_, lab, clinic, call = world
        job_id = call("researcher", lab, "/compute/submit",
                      request=JobSubmitRequest(graph=tiny_graph())
                      ).body["job_id"]
        call("researcher", lab, "/compute/result", job_id=job_id)
        entries = platform.audit.search_logs(stream="audit",
                                             contains=job_id)
        assert any("submitted" in e for e in entries)
        assert any("result read" in e for e in entries)

    def test_audit_lines_keep_the_shared_format(self, world):
        platform, *_, lab, clinic, call = world
        job_id = call("researcher", lab, "/compute/submit",
                      request=JobSubmitRequest(graph=tiny_graph())
                      ).body["job_id"]
        call("researcher", lab, "/compute/result", job_id=job_id)
        call("reader", lab, "/compute/status", job_id=job_id)
        assert [e.message for e in platform.monitoring.logs.entries("audit")
                if e.message.startswith("compute job")] == [
            "compute job job-000001 submitted by user user-821bb04942d2 "
            "tenant tenant-9370128a432d request req-00000001 "
            "graph=tiny tasks=1",
            "compute job job-000001 result read by user user-821bb04942d2 "
            "tenant tenant-9370128a432d request req-00000002 all outputs",
            "compute job job-000001 status read by user user-1f43b7d0582e "
            "tenant tenant-9370128a432d request req-00000003",
        ]

    def test_lifecycle_events_reach_health_snapshot(self, world):
        platform, plane, *_, lab, clinic, call = world
        call("researcher", lab, "/compute/submit",
             request=JobSubmitRequest(graph=tiny_graph()))
        kinds = {e.kind for e in plane.events.recent()}
        assert {"job.pending", "job.scheduled", "job.running",
                "job.succeeded", "task.finished"} <= kinds
        report = plane.snapshot()
        assert report.events["by_source"]["compute"] >= 5
