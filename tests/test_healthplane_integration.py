"""End-to-end health-plane tests: every instrumented layer feeds the plane.

The gateway, resilience executor, cache hierarchy, sharded blockchain,
and ingestion frontend all publish through the optional
``monitoring.healthplane`` hook; attaching a :class:`HealthPlane` must
light all of them up without changing simulated time, and leaving it
detached must cost nothing.
"""

import pytest

from repro.blockchain import ShardedBlockchainNetwork
from repro.caching import CacheHierarchy, CacheLevel, LruCache, Origin
from repro.cloudsim.clock import SimClock
from repro.cloudsim.healthplane import HealthPlane
from repro.cloudsim.monitoring import MonitoringService
from repro.core.api import ApiGateway, ApiRequest, RouteSpec
from repro.core.errors import ServiceUnavailableError
from repro.core.resilience import ResiliencePolicy, ResilientExecutor
from repro.ingestion import ShardedIngestionFrontend
from repro.rbac.engine import RbacEngine
from repro.rbac.federation import (
    ExternalIdentityProvider,
    FederatedIdentityService,
)
from repro.rbac.model import Action, Permission, Scope, ScopeKind


@pytest.fixture
def world():
    clock = SimClock()
    monitoring = MonitoringService(clock)
    plane = HealthPlane(monitoring, seed=11)

    rbac = RbacEngine()
    tenant = rbac.create_tenant("acme")
    org = rbac.create_organization(tenant.tenant_id, "org")
    env = rbac.create_environment(org.org_id, "prod")
    user = rbac.register_user(tenant.tenant_id, "alice")
    scope = Scope(ScopeKind.ORGANIZATION, org.org_id)
    rbac.define_role("reader", [Permission(Action.READ, "records", scope)])
    rbac.bind_role(user.user_id, org.org_id, env.env_id, "reader")

    federation = FederatedIdentityService(rbac, clock)
    idp = ExternalIdentityProvider("idp", b"idp-secret-key-01", clock)
    federation.approve_idp("idp", b"idp-secret-key-01")
    federation.link_identity("idp", "alice@acme", user.user_id)

    gateway = ApiGateway(rbac, federation, monitoring=monitoring,
                         clock=clock, rate_limit=100_000)
    state = {"fail": False}

    def handler(context, **kw):
        if state["fail"]:
            raise ServiceUnavailableError("kb down")
        return {"ok": True}

    gateway.register_route(RouteSpec(
        path="/echo", handler=handler, action=Action.READ,
        resource_type="records", scope_kind=ScopeKind.ORGANIZATION))
    return clock, monitoring, plane, gateway, idp, org, env, state


def _call(gateway, idp, org, env):
    return gateway.dispatch(ApiRequest(
        path="/echo", token=idp.issue_token("alice@acme"),
        scope_entity_id=org.org_id, org_id=org.org_id, env_id=env.env_id))


class TestGatewayFeed:
    def test_requests_land_in_series_accounting_and_stream(self, world):
        clock, monitoring, plane, gateway, idp, org, env, state = world
        sub = plane.events.subscribe("dash", kinds=["api"])
        assert _call(gateway, idp, org, env).status == 200
        state["fail"] = True
        assert _call(gateway, idp, org, env).status == 503
        # SLO counters: one good, one bad.
        assert plane.series.total("api.requests.good", 3600.0) == 1.0
        assert plane.series.total("api.requests.bad", 3600.0) == 1.0
        # Accounting saw the authenticated tenant and the route.
        tenants = plane.accounting.top("tenant", "requests")
        assert [h.key for h in tenants] == [org.tenant_id]
        assert plane.accounting.top("route", "faults")[0].key == "/echo"
        # The stream carries both request events with statuses.
        statuses = [e.attributes["status"] for e in sub.poll()]
        assert statuses == [200, 503]

    def test_unauthenticated_request_never_learns_a_tenant(self, world):
        clock, monitoring, plane, gateway, idp, org, env, _ = world
        import dataclasses
        bad = dataclasses.replace(idp.issue_token("alice@acme"),
                                  signature=b"forged")
        response = gateway.dispatch(ApiRequest(
            path="/echo", token=bad, scope_entity_id=org.org_id,
            org_id=org.org_id, env_id=env.env_id))
        assert response.status == 401
        tenants = [h.key for h in plane.accounting.top("tenant", "requests")]
        assert tenants == ["unauthenticated"]

    def test_page_fires_within_fast_window_of_sustained_fault(self, world):
        clock, monitoring, plane, gateway, idp, org, env, state = world
        plane.register_api_slo()
        # One calm hour seeds the long window.
        end = clock.now + 3600.0
        while clock.now < end:
            _call(gateway, idp, org, env)
            clock.advance(2.0)
        assert plane.evaluate() == []
        fault_start = clock.now
        state["fail"] = True
        pages = []
        while not pages and clock.now < fault_start + 1800.0:
            _call(gateway, idp, org, env)
            clock.advance(2.0)
            pages = [a for a in plane.evaluate() if a.severity == "page"]
        assert pages, "sustained 100% failure must page"
        assert pages[0].fired_at_s - fault_start <= 300.0

    def test_exemplar_links_latency_to_trace_when_traced(self):
        from repro.cloudsim.tracing import Tracer
        clock = SimClock()
        monitoring = MonitoringService(clock)
        plane = HealthPlane(monitoring)
        tracer = Tracer(clock)

        rbac = RbacEngine()
        tenant = rbac.create_tenant("t")
        org = rbac.create_organization(tenant.tenant_id, "o")
        env = rbac.create_environment(org.org_id, "e")
        user = rbac.register_user(tenant.tenant_id, "u")
        scope = Scope(ScopeKind.ORGANIZATION, org.org_id)
        rbac.define_role("r", [Permission(Action.READ, "records", scope)])
        rbac.bind_role(user.user_id, org.org_id, env.env_id, "r")
        federation = FederatedIdentityService(rbac, clock)
        idp = ExternalIdentityProvider("idp", b"idp-secret-key-01", clock)
        federation.approve_idp("idp", b"idp-secret-key-01")
        federation.link_identity("idp", "u@t", user.user_id)
        gateway = ApiGateway(rbac, federation, monitoring=monitoring,
                             clock=clock)
        gateway.register_route(RouteSpec(
            path="/echo", handler=lambda context, **kw: {},
            action=Action.READ, resource_type="records",
            scope_kind=ScopeKind.ORGANIZATION))
        gateway.dispatch(ApiRequest(
            path="/echo", token=idp.issue_token("u@t"),
            scope_entity_id=org.org_id, org_id=org.org_id,
            env_id=env.env_id))
        report = plane.snapshot()
        assert "api.latency" in report.exemplars
        trace_id = report.exemplars["api.latency"]["trace_id"]
        assert tracer.has_trace(trace_id)


class TestResilienceFeed:
    def test_breaker_transitions_and_hedges_hit_the_stream(self):
        clock = SimClock()
        monitoring = MonitoringService(clock)
        plane = HealthPlane(monitoring)
        sub = plane.events.subscribe("dash", kinds=["breaker"])
        policy = ResiliencePolicy(max_attempts=1,
                                  breaker_failure_threshold=2)
        executor = ResilientExecutor(policy, clock, monitoring)

        def boom():
            raise ServiceUnavailableError("down")

        for _ in range(2):
            with pytest.raises(Exception):
                executor.call("kb", boom, fallbacks=[("kb2", boom)])
        kinds = [e.kind for e in sub.poll()]
        assert "breaker.transition" in kinds


class TestCacheFeed:
    def test_origin_fetches_publish_events(self):
        clock = SimClock()
        monitoring = MonitoringService(clock)
        plane = HealthPlane(monitoring)
        sub = plane.events.subscribe("dash", kinds=["cache"])
        hierarchy = CacheHierarchy(
            [CacheLevel("server", LruCache(8), access_cost_s=1e-3)],
            Origin("kb", loader=lambda k: f"v{k}", access_cost_s=10e-3),
            clock=clock, monitoring=monitoring)
        hierarchy.get("a")                     # miss: origin fetch
        hierarchy.get("a")                     # hit: no event
        hierarchy.get_many(["b", "c"])         # one bulk origin fetch
        events = sub.poll()
        assert [e.kind for e in events] == ["cache.origin_fetch"] * 2
        assert events[0].attributes["keys"] == 1
        assert events[1].attributes["keys"] == 2


class TestShardAndIngestFeed:
    def test_shard_commits_feed_series_accounting_and_stream(self):
        network = ShardedBlockchainNetwork(2, seed=3, batch_size=4)
        plane = HealthPlane(network.monitoring)
        sub = plane.events.subscribe("dash", kinds=["shard", "ingestion"])
        frontend = ShardedIngestionFrontend(network, events_per_batch=4)
        for i in range(16):
            frontend.record_event(f"patient-{i % 8:03d}", handle=f"h-{i}",
                                  data_hash=f"{i:02x}", event="received",
                                  actor="ingest")
        report = frontend.flush()
        assert report is not None
        kinds = [e.kind for e in sub.poll()]
        assert "ingestion.batch_sealed" in kinds
        assert "ingestion.flush" in kinds
        assert "shard.commit" in kinds
        shards = [h.key for h in plane.accounting.top("shard", "requests")]
        assert shards and all(s.startswith("shard-") for s in shards)
        assert plane.series.has_series(
            "blockchain.shard.commit_s", labels={"shard": shards[0]})


class TestLogTail:
    def test_log_tail_publishes_warn_and_up_exactly_once(self):
        clock = SimClock()
        monitoring = MonitoringService(clock)
        plane = HealthPlane(monitoring)
        monitoring.log("api", "fine", level="INFO")
        monitoring.log("api", "slow", level="WARN")
        monitoring.log("api", "broken", level="ERROR")
        first = plane.log_tail()
        assert [e.attributes["level"] for e in first] == ["WARN", "ERROR"]
        assert plane.log_tail() == []          # cursor advanced
        monitoring.log("api", "again", level="ERROR")
        assert [e.attributes["message"] for e in plane.log_tail()] == ["again"]


class TestZeroCostWhenDetached:
    def test_attaching_the_plane_never_changes_simulated_time(self, world):
        clock, monitoring, plane, gateway, idp, org, env, state = world
        t0 = clock.now
        _call(gateway, idp, org, env)
        with_plane = clock.now - t0
        # Same world, no plane attached.
        clock2 = SimClock()
        monitoring2 = MonitoringService(clock2)
        rbac = RbacEngine()
        tenant = rbac.create_tenant("acme")
        org2 = rbac.create_organization(tenant.tenant_id, "org")
        env2 = rbac.create_environment(org2.org_id, "prod")
        user = rbac.register_user(tenant.tenant_id, "alice")
        scope = Scope(ScopeKind.ORGANIZATION, org2.org_id)
        rbac.define_role("reader",
                         [Permission(Action.READ, "records", scope)])
        rbac.bind_role(user.user_id, org2.org_id, env2.env_id, "reader")
        federation = FederatedIdentityService(rbac, clock2)
        idp2 = ExternalIdentityProvider("idp", b"idp-secret-key-01", clock2)
        federation.approve_idp("idp", b"idp-secret-key-01")
        federation.link_identity("idp", "alice@acme", user.user_id)
        gateway2 = ApiGateway(rbac, federation, monitoring=monitoring2,
                              clock=clock2, rate_limit=100_000)
        gateway2.register_route(RouteSpec(
            path="/echo", handler=lambda context, **kw: {"ok": True},
            action=Action.READ, resource_type="records",
            scope_kind=ScopeKind.ORGANIZATION))
        t0 = clock2.now
        _call(gateway2, idp2, org2, env2)
        assert clock2.now - t0 == with_plane

    def test_snapshot_reports_all_substrates(self, world):
        clock, monitoring, plane, gateway, idp, org, env, _ = world
        plane.register_api_slo()
        _call(gateway, idp, org, env)
        report = plane.snapshot()
        payload = report.to_dict()
        assert payload["series"]["cardinality"] >= 2
        assert payload["events"]["published"] >= 1
        assert payload["alerts_total"] == 0
        assert "tenant" in payload["top_usage"]
