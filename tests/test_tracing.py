"""Tests for request-path tracing: span trees, sealing, critical path,
and end-to-end propagation through the gateway/cache/resilience/KB/
blockchain stack."""

import json
from types import SimpleNamespace

import pytest

from repro.blockchain import standard_network
from repro.caching.hierarchy import CacheHierarchy, CacheLevel, Origin
from repro.caching.policies import LruCache
from repro.cloudsim.clock import SimClock
from repro.cloudsim.faults import FaultPlan
from repro.cloudsim.monitoring import MonitoringService
from repro.cloudsim.tracing import (
    NOOP_SPAN,
    TraceContext,
    Tracer,
    maybe_span,
)
from repro.core.api import ApiGateway, ApiRequest, RouteSpec
from repro.core.errors import IntegrityError, NotFoundError
from repro.core.resilience import ResiliencePolicy, ResilientExecutor
from repro.knowledge.remote import RemoteKnowledgeBase
from repro.rbac.engine import RbacEngine
from repro.rbac.federation import (
    ExternalIdentityProvider,
    FederatedIdentityService,
)
from repro.rbac.model import Action, Permission, Scope, ScopeKind
from repro import HealthCloudPlatform
from tests.conftest import one_leaf_batch


# ---------------------------------------------------------------------------
# Unit level: the tracer itself.
# ---------------------------------------------------------------------------


class TestSpanTree:
    def test_root_span_starts_a_new_trace(self):
        tracer = Tracer()
        with tracer.span("op", "layer-a", k=1) as span:
            assert span.trace_id == "t-00000001"
            assert span.span_id == "s-00000001"
            assert span.parent_id is None
            assert span.attributes == {"k": 1}
        assert tracer.trace_ids() == ["t-00000001"]
        assert tracer.get_trace("t-00000001") is span

    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with tracer.span("root", "a") as root:
            with tracer.span("left", "b") as left:
                pass
            with tracer.span("right", "b") as right:
                with tracer.span("leaf", "c") as leaf:
                    pass
        assert [c.span_id for c in root.children] == [left.span_id,
                                                      right.span_id]
        assert right.children == [leaf]
        assert leaf.trace_id == root.trace_id
        assert leaf.parent_id == right.span_id
        assert [s.name for s in root.walk()] == ["root", "left", "right",
                                                 "leaf"]

    def test_timestamps_come_from_the_sim_clock(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("root", "a") as root:
            clock.advance(1.5)
            with tracer.span("child", "b") as child:
                clock.advance(0.5)
        assert root.start_s == 0.0
        assert child.start_s == 1.5
        assert child.end_s == 2.0
        assert root.end_s == 2.0
        assert root.duration_s == pytest.approx(2.0)

    def test_tracer_never_advances_the_clock(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("root", "a"):
            with tracer.span("child", "b") as child:
                child.set_attribute("x", 1)
                child.add_event("e", clock.now)
        assert clock.now == 0.0

    def test_exception_marks_error_status(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("root", "a") as span:
                raise ValueError("boom")
        assert span.status == "ERROR"
        assert "ValueError" in span.error
        assert span.finished
        assert tracer.has_trace(span.trace_id)

    def test_unwind_closes_abandoned_descendants(self):
        # A span entered without a `with` block (or abandoned by an
        # exception) must not wedge the stack: finishing an ancestor pops
        # and closes it.
        tracer = Tracer()
        with tracer.span("root", "a") as root:
            abandoned_cm = tracer.span("abandoned", "b")
            abandoned = abandoned_cm.__enter__()
        assert abandoned.finished
        assert tracer.current_context() is None
        assert [s.name for s in root.walk()] == ["root", "abandoned"]

    def test_current_context_tracks_innermost_span(self):
        tracer = Tracer()
        assert tracer.current_context() is None
        with tracer.span("root", "a") as root:
            assert tracer.current_context() == TraceContext(
                root.trace_id, root.span_id)
            with tracer.span("child", "b") as child:
                assert tracer.current_context().span_id == child.span_id
        assert tracer.current_context() is None

    def test_disabled_tracer_hands_out_the_noop(self):
        assert maybe_span(None, "x", "y") is NOOP_SPAN

    def test_noop_span_absorbs_the_whole_span_api(self):
        with maybe_span(None, "x", "y") as span:
            span.set_attribute("a", 1)
            span.add_event("e", 0.0, detail="d")
            span.set_status("ERROR", "nope")
        assert span.trace_id is None

    def test_max_traces_bounds_storage(self):
        tracer = Tracer(max_traces=2)
        for _ in range(3):
            with tracer.span("op", "a"):
                pass
        assert tracer.trace_ids() == ["t-00000002", "t-00000003"]
        assert not tracer.has_trace("t-00000001")

    def test_get_trace_unknown_raises_not_found(self):
        with pytest.raises(NotFoundError):
            Tracer().get_trace("t-99999999")


class TestIntegrity:
    def _tree(self):
        tracer = Tracer()
        with tracer.span("root", "a") as root:
            with tracer.span("child", "b") as child:
                child.set_attribute("k", "v")
        return tracer, root, child

    def test_sealed_trace_verifies(self):
        tracer, root, child = self._tree()
        assert root.span_hash is not None
        assert child.span_hash is not None
        assert tracer.verify_trace(root.trace_id)

    def test_tampered_attribute_detected(self):
        tracer, root, child = self._tree()
        child.attributes["k"] = "forged"
        with pytest.raises(IntegrityError):
            tracer.verify_trace(root.trace_id)

    def test_tampered_leaf_breaks_the_root_hash(self):
        # The root hash commits to child hashes Merkle-style, so editing a
        # leaf *and* recomputing only its own hash still fails at the root.
        tracer, root, child = self._tree()
        child.name = "forged"
        from repro.cloudsim.tracing import _recompute
        child.span_hash = _recompute(child)
        with pytest.raises(IntegrityError):
            tracer.verify_trace(root.trace_id)

    def test_export_is_deterministic_json(self):
        tracer, root, _ = self._tree()
        exported = tracer.export_trace(root.trace_id)
        parsed = json.loads(exported)
        assert exported == json.dumps(parsed, sort_keys=True,
                                      separators=(",", ":"))
        assert parsed["name"] == "root"
        assert parsed["children"][0]["name"] == "child"


class TestCriticalPath:
    def test_sequential_children_attribute_everything(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("root", "gateway") as root:
            clock.advance(1.0)                    # root self time
            with tracer.span("fetch", "cache"):
                clock.advance(2.0)
            clock.advance(0.5)                    # more root self time
        path = tracer.critical_path(root.trace_id)
        assert path.total_s == pytest.approx(3.5)
        by_layer = path.by_layer()
        assert by_layer["gateway"] == pytest.approx(1.5)
        assert by_layer["cache"] == pytest.approx(2.0)
        pct = path.layer_percentages()
        assert sum(pct.values()) == pytest.approx(100.0)
        assert pct["cache"] == pytest.approx(100.0 * 2.0 / 3.5)

    def test_deep_nesting_sums_to_root_duration(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("a", "l1") as root:
            clock.advance(0.25)
            with tracer.span("b", "l2"):
                clock.advance(0.25)
                with tracer.span("c", "l3"):
                    clock.advance(0.5)
                clock.advance(0.125)
            clock.advance(0.125)
        path = tracer.critical_path(root.trace_id)
        assert sum(s.self_time_s for s in path.segments) == pytest.approx(
            path.total_s)
        assert path.total_s == pytest.approx(root.duration_s)
        assert {s.layer for s in path.segments} == {"l1", "l2", "l3"}

    def test_zero_duration_trace_has_no_percentages(self):
        tracer = Tracer()
        with tracer.span("instant", "a") as root:
            pass
        path = tracer.critical_path(root.trace_id)
        assert path.total_s == 0.0
        assert path.layer_percentages() == {}


# ---------------------------------------------------------------------------
# End to end: one traced dispatch through the whole stack.
# ---------------------------------------------------------------------------


class _TermKb:
    """A tiny knowledge base the remote proxy wraps."""

    name = "terms"

    def lookup(self, key):
        return f"definition-of-{key}"


def build_world(traced=True):
    """A full request path: gateway -> cache -> resilient KB -> blockchain.

    Identical construction with tracing on or off, so simulated latencies
    can be compared bit-for-bit between the two.
    """
    clock = SimClock()
    monitoring = MonitoringService(clock)
    tracer = Tracer(clock) if traced else None

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

    executor = ResilientExecutor(
        ResiliencePolicy(timeout_s=5.0, max_attempts=3, jitter=0.0),
        clock=clock, monitoring=monitoring, tracer=tracer)
    remote = RemoteKnowledgeBase(_TermKb(), clock, resilience=executor)
    remote.tracer = tracer

    hierarchy = CacheHierarchy(
        [CacheLevel("l1", LruCache(64), 50e-6)],
        Origin("kb-origin", lambda key: remote.call("lookup", key),
               access_cost_s=0.0),
        clock=clock, monitoring=monitoring, tracer=tracer)

    net = standard_network(seed=7, batch_size=1, clock=clock,
                           monitoring=monitoring)
    net.tracer = tracer

    gateway = ApiGateway(rbac, federation, monitoring=monitoring,
                         clock=clock, rate_limit=1000, tracer=tracer)
    seen_contexts = []

    def lookup_handler(context, key):
        seen_contexts.append(context)
        result = hierarchy.get(key)
        net.submit("ingestion-service", "provenance", "record_batch",
                   **one_leaf_batch(handle=key, data_hash="aa" * 32,
                                    event="received", actor="client"))
        net.flush()
        return {"value": result.value, "served_by": result.served_by}

    gateway.register_route(RouteSpec(
        path="/lookup", handler=lookup_handler,
        action=Action.READ, resource_type="records",
        scope_kind=ScopeKind.ORGANIZATION))

    return SimpleNamespace(
        clock=clock, monitoring=monitoring, tracer=tracer,
        gateway=gateway, idp=idp, org=org, env=env,
        remote=remote, hierarchy=hierarchy, net=net,
        seen_contexts=seen_contexts)


def _request(world, path="/lookup", **overrides):
    fields = dict(path=path, token=world.idp.issue_token("alice@acme"),
                  scope_entity_id=world.org.org_id, org_id=world.org.org_id,
                  env_id=world.env.env_id)
    fields.update(overrides)
    return ApiRequest(**fields)


class TestEndToEnd:
    def test_one_dispatch_yields_one_tree_covering_four_plus_layers(self):
        world = build_world()
        response = world.gateway.dispatch(
            _request(world, params={"key": "hba1c"}))
        assert response.status == 200
        assert response.body["value"] == "definition-of-hba1c"

        assert world.tracer.trace_ids() == ["t-00000001"]
        spans = world.tracer.spans("t-00000001")
        names = [s.name for s in spans]
        layers = {s.layer for s in spans}
        assert names[0] == "api.dispatch"
        assert "cache.get" in names
        assert "cache.origin_fetch" in names
        assert "resilience.kb.terms" in names
        assert "resilience.attempt" in names
        assert "kb.call" in names
        assert "blockchain.endorse_batch" in names
        assert "blockchain.commit" in names
        assert {"gateway", "cache", "resilience",
                "knowledge", "blockchain"} <= layers
        assert len(layers) >= 4
        # Everything hangs off the single dispatch root.
        root = world.tracer.get_trace("t-00000001")
        assert all(s.trace_id == root.trace_id for s in spans)

    def test_critical_path_attribution_sums_to_end_to_end_latency(self):
        world = build_world()
        world.gateway.dispatch(_request(world, params={"key": "hba1c"}))
        root = world.tracer.get_trace("t-00000001")
        path = world.tracer.critical_path("t-00000001")
        assert root.duration_s > 0.0
        assert path.total_s == pytest.approx(root.duration_s, abs=0.0)
        assert sum(path.by_layer().values()) == pytest.approx(
            path.total_s, rel=1e-12)
        assert sum(path.layer_percentages().values()) == pytest.approx(
            100.0, abs=1e-6)
        # The 80 ms WAN round trip dominates a cold lookup.
        pct = path.layer_percentages()
        assert max(pct, key=pct.get) == "knowledge"

    def test_request_context_carries_the_trace_context(self):
        world = build_world()
        world.gateway.dispatch(_request(world, params={"key": "hba1c"}))
        (context,) = world.seen_contexts
        assert isinstance(context.trace, TraceContext)
        assert context.trace.trace_id == "t-00000001"
        # The handler ran inside the dispatch span.
        root = world.tracer.get_trace("t-00000001")
        assert context.trace.span_id == root.span_id

    def test_untraced_gateway_leaves_context_trace_none(self):
        world = build_world(traced=False)
        world.gateway.dispatch(_request(world, params={"key": "hba1c"}))
        (context,) = world.seen_contexts
        assert context.trace is None

    def test_latency_exemplar_resolves_to_a_stored_trace(self):
        world = build_world()
        world.gateway.dispatch(_request(world, params={"key": "hba1c"}))
        exemplar = world.monitoring.metrics.exemplar("api.latency")
        assert exemplar is not None
        assert world.tracer.has_trace(exemplar["trace_id"])
        assert exemplar["value"] == pytest.approx(
            world.tracer.get_trace(exemplar["trace_id"]).duration_s)

    def test_audit_log_entries_carry_the_trace_id(self):
        world = build_world()
        world.gateway.dispatch(_request(world, params={"key": "hba1c"}))
        entries = world.monitoring.logs.entries(stream="api")
        assert entries
        assert entries[-1].attributes["trace"] == "t-00000001"
        assert world.monitoring.logs.verify_chain()

    def test_error_dispatches_are_traced_too(self):
        world = build_world()
        response = world.gateway.dispatch(_request(world, path="/missing"))
        assert response.status == 404
        root = world.tracer.get_trace("t-00000001")
        assert root.status == "ERROR"
        assert root.attributes["http.status"] == 404
        assert world.tracer.verify_trace("t-00000001")

    def test_disabled_tracing_is_latency_bit_identical(self):
        # The tracer only reads clock.now; a traced run and an untraced
        # run of the same request sequence end at the *exact* same
        # simulated time (== on floats, no tolerance).
        keys = ["hba1c", "ldl", "hba1c", "a1c", "ldl"]
        finals = []
        for traced in (True, False):
            world = build_world(traced=traced)
            for key in keys:
                response = world.gateway.dispatch(
                    _request(world, params={"key": key}))
                assert response.status == 200
            finals.append(world.clock.now)
        assert finals[0] == finals[1]

    def test_export_is_identical_across_identical_runs(self):
        exports = []
        for _ in range(2):
            world = build_world()
            world.gateway.dispatch(_request(world, params={"key": "hba1c"}))
            exports.append(world.tracer.export_trace("t-00000001"))
        assert exports[0] == exports[1]

    def test_end_to_end_trace_verifies_and_tamper_is_caught(self):
        world = build_world()
        world.gateway.dispatch(_request(world, params={"key": "hba1c"}))
        assert world.tracer.verify_trace("t-00000001")
        victim = world.tracer.spans("t-00000001")[-1]
        victim.attributes["forged"] = True
        with pytest.raises(IntegrityError):
            world.tracer.verify_trace("t-00000001")


class TestFaultsInTraces:
    def test_dropped_link_shows_up_as_extra_attempt_spans(self):
        # Seeded plan: random.Random(1) draws ~0.134 then ~0.847, so at
        # drop_rate=0.5 the first KB call is dropped and the retry lands.
        world = build_world()
        plan = FaultPlan(seed=1, clock=world.clock)
        plan.drop_link("cloud-a", "external-kb", drop_rate=0.5)
        world.remote.fault_plan = plan

        response = world.gateway.dispatch(
            _request(world, params={"key": "hba1c"}))
        assert response.status == 200
        assert world.remote.failed_calls == 1

        spans = world.tracer.spans("t-00000001")
        attempts = [s for s in spans if s.name == "resilience.attempt"]
        assert len(attempts) == 2
        assert attempts[0].status == "ERROR"
        assert attempts[1].status == "OK"
        assert any(e.name == "backoff" for e in attempts[1].events)
        kb_spans = [s for s in spans if s.name == "kb.call"]
        assert kb_spans[0].attributes.get("dropped") is True
        assert kb_spans[0].status == "ERROR"
        # The retry's extra round trip and backoff are on the critical
        # path, still summing to 100%.
        pct = world.tracer.critical_path("t-00000001").layer_percentages()
        assert sum(pct.values()) == pytest.approx(100.0, abs=1e-6)

    def test_all_attempts_dropped_traces_the_503(self):
        world = build_world()
        plan = FaultPlan(seed=1, clock=world.clock)
        plan.drop_link("cloud-a", "external-kb", drop_rate=1.0)
        world.remote.fault_plan = plan

        response = world.gateway.dispatch(
            _request(world, params={"key": "hba1c"}))
        assert response.status == 503
        spans = world.tracer.spans("t-00000001")
        attempts = [s for s in spans if s.name == "resilience.attempt"]
        assert len(attempts) == 3              # policy.max_attempts
        assert all(s.status == "ERROR" for s in attempts)
        root = world.tracer.get_trace("t-00000001")
        assert root.status == "ERROR"
        assert root.attributes["http.status"] == 503


class TestIngestionTracing:
    def test_process_pending_produces_job_spans(self):
        from repro.ingestion.pipeline import encrypt_bundle_for_upload
        from repro.fhir.resources import Bundle, Observation, Patient

        p = HealthCloudPlatform(seed=17)
        tracer = Tracer(p.clock)
        p.ingestion.tracer = tracer
        p.blockchain.tracer = tracer

        context = p.register_tenant("acme")
        group = p.rbac.create_group(context.tenant.tenant_id, "study")
        registration = p.ingestion.register_client("client-1")
        p.consent.grant("pt-1", group.group_id)

        bundle = Bundle(id="b1")
        bundle.add(Patient(id="pt-1", name={"family": "Doe"},
                           birthDate="1980-03-12", gender="female"))
        bundle.add(Observation(id="pt-1-obs", code={"text": "HbA1c"},
                               subject="Patient/pt-1",
                               valueQuantity={"value": 7.0, "unit": "%"}))
        p.ingestion.upload(
            "client-1", encrypt_bundle_for_upload(bundle, registration),
            group.group_id)
        p.run_ingestion()

        roots = [tracer.get_trace(tid) for tid in tracer.trace_ids()]
        batch = next(r for r in roots
                     if r.name == "ingestion.process_pending")
        jobs = [s for s in batch.walk() if s.name == "ingestion.job"]
        assert len(jobs) == 1
        assert jobs[0].attributes["status"] == "stored"
        assert batch.attributes["processed"] == 1
        # Provenance endorsement ran inside the batch span.
        layers = {s.layer for s in batch.walk()}
        assert "blockchain" in layers
        for tid in tracer.trace_ids():
            assert tracer.verify_trace(tid)
