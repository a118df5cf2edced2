"""Integration: the platform's built-in API gateway surface."""

import pytest

from repro import HealthCloudPlatform
from repro.core.api import ApiRequest
from repro.rbac import (
    Action,
    ExternalIdentityProvider,
    Permission,
    Scope,
    ScopeKind,
)


@pytest.fixture
def gateway_world():
    platform = HealthCloudPlatform(seed=151, use_blockchain=False)
    context = platform.register_tenant("acme")
    user = platform.rbac.register_user(context.tenant.tenant_id, "ops")
    scope = Scope(ScopeKind.TENANT, context.tenant.tenant_id)
    platform.rbac.define_role("operator", [
        Permission(Action.READ, "platform-status", scope),
        Permission(Action.READ, "reports", scope),
        Permission(Action.READ, "billing", scope),
    ])
    platform.rbac.bind_role(user.user_id, context.default_org.org_id,
                            context.default_env.env_id, "operator")
    idp = ExternalIdentityProvider("hospital-idp", b"secret-key-0123456",
                                   platform.clock)
    platform.federation.approve_idp("hospital-idp", b"secret-key-0123456")
    platform.federation.link_identity("hospital-idp", "ops@acme",
                                      user.user_id)
    gateway = platform.build_api_gateway()
    return platform, context, gateway, idp


def _call(gateway, idp, context, path, login="ops@acme", **kwargs):
    token = idp.issue_token(login)
    return gateway.dispatch(ApiRequest(
        path=path, token=token,
        scope_entity_id=context.tenant.tenant_id,
        org_id=context.default_org.org_id,
        env_id=context.default_env.env_id, params=kwargs))


class TestPlatformGateway:
    def test_routes_registered(self, gateway_world):
        _, _, gateway, _ = gateway_world
        assert set(gateway.routes()) == {
            "/v1/ingestion/status", "/v1/reports/operations",
            "/v1/reports/compliance", "/v1/billing"}

    def test_operations_report_route(self, gateway_world):
        platform, context, gateway, idp = gateway_world
        response = _call(gateway, idp, context, "/reports/operations")
        assert response.status == 200
        assert "uploads" in response.body

    def test_compliance_report_route(self, gateway_world):
        platform, context, gateway, idp = gateway_world
        response = _call(gateway, idp, context, "/reports/compliance")
        assert response.status == 200
        assert response.body["coverage"]["GDPR"] == 1.0

    def test_status_route_end_to_end(self, gateway_world):
        from repro.fhir import Bundle, Patient
        from repro.ingestion import encrypt_bundle_for_upload
        platform, context, gateway, idp = gateway_world
        group = platform.rbac.create_group(context.tenant.tenant_id, "g")
        registration = platform.ingestion.register_client("c")
        platform.consent.grant("pt-1", group.group_id)
        bundle = Bundle(id="b").add(
            Patient(id="pt-1", name={"family": "X"}, birthDate="1980-01-01",
                    gender="male"))
        job = platform.ingestion.upload(
            "c", encrypt_bundle_for_upload(bundle, registration),
            group.group_id)
        platform.run_ingestion()
        response = _call(gateway, idp, context, "/ingestion/status",
                         job_id=job.job_id)
        assert response.status == 200
        assert response.body["status"] == "stored"

    def test_billing_route_reflects_metered_calls(self, gateway_world):
        platform, context, gateway, idp = gateway_world
        for _ in range(3):
            _call(gateway, idp, context, "/reports/operations")
        response = _call(gateway, idp, context, "/billing")
        assert response.status == 200
        # 3 prior successful calls metered (this one is metered after the
        # handler ran, so it is not in its own invoice).
        api_line = next(line for line in response.body["lines"]
                        if line["service"] == "api.call")
        assert api_line["units"] == 3

    def test_unprivileged_user_gets_403(self, gateway_world):
        platform, context, gateway, idp = gateway_world
        nobody = platform.rbac.register_user(context.tenant.tenant_id,
                                             "nobody")
        platform.federation.link_identity("hospital-idp", "nobody@acme",
                                          nobody.user_id)
        token = idp.issue_token("nobody@acme")
        response = gateway.dispatch(ApiRequest(
            path="/billing", token=token,
            scope_entity_id=context.tenant.tenant_id,
            org_id=context.default_org.org_id,
            env_id=context.default_env.env_id))
        assert response.status == 403


class TestIngestionStatusIsolation:
    """An ingestion job belongs to the tenant that owns its group; any
    other tenant's poll reads exactly like a poll of an unknown id."""

    @pytest.fixture
    def two_tenants(self, gateway_world):
        from repro.fhir import Bundle, Patient
        from repro.ingestion import encrypt_bundle_for_upload
        platform, acme, gateway, idp = gateway_world
        globex = platform.register_tenant("globex")
        user = platform.rbac.register_user(globex.tenant.tenant_id, "ops")
        platform.rbac.define_role("globex-operator", [Permission(
            Action.READ, "platform-status",
            Scope(ScopeKind.TENANT, globex.tenant.tenant_id))])
        platform.rbac.bind_role(user.user_id, globex.default_org.org_id,
                                globex.default_env.env_id,
                                "globex-operator")
        platform.federation.link_identity("hospital-idp", "ops@globex",
                                          user.user_id)
        group = platform.rbac.create_group(acme.tenant.tenant_id, "g")
        registration = platform.ingestion.register_client("c")
        bundle = Bundle(id="b").add(
            Patient(id="pt-secret-42", name={"family": "X"},
                    birthDate="1980-01-01", gender="male"))
        job = platform.ingestion.upload(
            "c", encrypt_bundle_for_upload(bundle, registration),
            group.group_id)
        platform.run_ingestion()          # rejected: no consent

        def poll(tenant, login, job_id):
            return gateway.dispatch(ApiRequest(
                path="/ingestion/status", token=idp.issue_token(login),
                scope_entity_id=tenant.tenant.tenant_id,
                org_id=tenant.default_org.org_id,
                env_id=tenant.default_env.env_id,
                params={"job_id": job_id}))

        return platform, acme, globex, job, registration, bundle, poll

    def test_owner_reads_its_job(self, two_tenants):
        _, acme, _, job, *_, poll = two_tenants
        response = poll(acme, "ops@acme", job.job_id)
        assert response.status == 200
        assert response.body["status"] == "rejected"
        assert "pt-secret-42" in response.body["reason"]

    def test_foreign_job_reads_like_an_unknown_one(self, two_tenants):
        _, _, globex, job, *_, poll = two_tenants
        foreign = poll(globex, "ops@globex", job.job_id)
        unknown = poll(globex, "ops@globex", "job-9999999")
        assert foreign.status == unknown.status == 404
        assert foreign.body == {"error": f"no ingestion job {job.job_id!r}"}
        assert unknown.body == {"error": "no ingestion job 'job-9999999'"}

    def test_job_whose_group_has_no_tenant_reads_as_unknown(
            self, two_tenants):
        from repro.ingestion import encrypt_bundle_for_upload
        platform, acme, _, _, registration, bundle, poll = two_tenants
        orphan = platform.ingestion.upload(
            "c", encrypt_bundle_for_upload(bundle, registration),
            "group-unregistered")
        response = poll(acme, "ops@acme", orphan.job_id)
        assert response.status == 404
        assert response.body == {
            "error": f"no ingestion job {orphan.job_id!r}"}


def _report_world(acme_activity):
    """Tenants acme and globex, each with a reports reader, on one
    platform.  With ``acme_activity``, acme uploads 3 bundles that are
    rejected for want of consent, then makes 5 denied calls and 1
    allowed one."""
    from repro.fhir import Bundle, Patient
    from repro.ingestion import encrypt_bundle_for_upload
    platform = HealthCloudPlatform(seed=151, use_blockchain=False)
    idp = ExternalIdentityProvider("hospital-idp", b"secret-key-0123456",
                                   platform.clock)
    platform.federation.approve_idp("hospital-idp", b"secret-key-0123456")
    tenants = {}
    for name in ("acme", "globex"):
        context = platform.register_tenant(name)
        user = platform.rbac.register_user(context.tenant.tenant_id, "ops")
        platform.rbac.define_role(f"{name}-reader", [Permission(
            Action.READ, "reports",
            Scope(ScopeKind.TENANT, context.tenant.tenant_id))])
        platform.rbac.bind_role(user.user_id, context.default_org.org_id,
                                context.default_env.env_id,
                                f"{name}-reader")
        platform.federation.link_identity("hospital-idp", f"ops@{name}",
                                          user.user_id)
        tenants[name] = context
    gateway = platform.build_api_gateway()

    def call(name, path):
        return _call(gateway, idp, tenants[name], path,
                     login=f"ops@{name}")

    if acme_activity:
        group = platform.rbac.create_group(tenants["acme"].tenant.tenant_id,
                                           "g")
        registration = platform.ingestion.register_client("c")
        for i in range(3):
            bundle = Bundle(id=f"b{i}").add(Patient(
                id=f"pt-{i}", name={"family": "X"},
                birthDate="1980-01-01", gender="male"))
            platform.ingestion.upload(
                "c", encrypt_bundle_for_upload(bundle, registration),
                group.group_id)
        assert platform.run_ingestion() == 3
        for _ in range(5):
            assert call("acme", "/billing").status == 403
        assert call("acme", "/reports/operations").status == 200
    return call


class TestReportIsolation:
    """The two report routes answer for the caller's tenant only."""

    def test_another_tenants_activity_leaves_both_bodies_unchanged(self):
        quiet, busy = _report_world(False), _report_world(True)
        for path in ("/reports/operations", "/reports/compliance"):
            alone, beside = quiet("globex", path), busy("globex", path)
            assert alone.status == beside.status == 200
            assert beside.body == alone.body
        assert alone.body["audit_clean"] is True

    def test_operations_counts_the_callers_own_jobs(self):
        call = _report_world(True)
        body = call("acme", "/reports/operations").body
        assert body == {"uploads": 3.0, "stored": 0.0, "rejected": 3.0,
                        "latency": {"count": 0}}
        findings = call("acme", "/reports/compliance").body["findings"]
        assert any("denial ratio" in finding for finding in findings)

