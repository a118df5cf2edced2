"""Property-based tests: RBAC non-escalation, consistency invariants,
HL7 adapter robustness, and DELT estimator sanity."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.analytics.delt import DeltModel, PatientSeries
from repro.caching.consistency import ConsistencyHarness
from repro.core.errors import ValidationError
from repro.fhir.hl7v2 import hl7_to_bundle
from repro.rbac.engine import RbacEngine
from repro.rbac.model import Action, Permission, Scope, ScopeKind

_NO_DEADLINE = settings(deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


class TestRbacProperties:
    @given(bindings=st.lists(st.integers(0, 4), min_size=0, max_size=5),
           ask_role=st.integers(0, 4))
    @_NO_DEADLINE
    def test_no_access_without_matching_role(self, bindings, ask_role):
        """A user is allowed iff one of their bound roles grants exactly
        the requested (action, resource, scope) — never otherwise."""
        engine = RbacEngine()
        tenant = engine.create_tenant("t")
        org = engine.create_organization(tenant.tenant_id, "o")
        env = engine.create_environment(org.org_id, "e")
        scope = Scope(ScopeKind.ORGANIZATION, org.org_id)
        for r in range(5):
            engine.define_role(f"role-{r}", [
                Permission(Action.READ, f"res-{r}", scope)])
        user = engine.register_user(tenant.tenant_id, "u")
        for r in set(bindings):
            engine.bind_role(user.user_id, org.org_id, env.env_id,
                             f"role-{r}")
        decision = engine.check(user.user_id, Action.READ,
                                f"res-{ask_role}", scope,
                                org.org_id, env.env_id)
        assert decision.allowed == (ask_role in set(bindings))

    @given(n_members=st.integers(0, 3))
    @_NO_DEADLINE
    def test_group_membership_alone_grants_nothing(self, n_members):
        """Membership without a role never yields access (no escalation)."""
        engine = RbacEngine()
        tenant = engine.create_tenant("t")
        org = engine.create_organization(tenant.tenant_id, "o")
        env = engine.create_environment(org.org_id, "e")
        group = engine.create_group(tenant.tenant_id, "g")
        users = [engine.register_user(tenant.tenant_id, f"u{i}")
                 for i in range(3)]
        for user in users[:n_members]:
            engine.add_group_member(group.group_id, user.user_id)
        scope = Scope(ScopeKind.GROUP, group.group_id)
        for user in users:
            assert not engine.check(user.user_id, Action.READ, "phi",
                                    scope, org.org_id, env.env_id).allowed


class TestConsistencyProperties:
    @given(schedule=st.lists(
        st.tuples(st.sampled_from(["read", "write", "advance"]),
                  st.integers(0, 5)),
        max_size=120))
    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.too_slow])
    def test_invalidation_never_stale(self, schedule):
        """Under any interleaving, invalidation-protocol reads are fresh."""
        harness = ConsistencyHarness("invalidate", num_caches=2)
        versions = {}
        for key in range(6):
            harness.write(key, (key, 0))
            versions[key] = 0
        for op, key in schedule:
            if op == "write":
                versions[key] += 1
                harness.write(key, (key, versions[key]))
            elif op == "read":
                value = harness.read(key % 2, key)
                assert value == (key, versions[key])
            else:
                harness.advance(1.0)
        assert harness.report().stale_reads == 0

    @given(schedule=st.lists(
        st.tuples(st.sampled_from(["read", "write"]), st.integers(0, 3)),
        max_size=80),
           ttl=st.floats(0.5, 20.0))
    @settings(deadline=None, max_examples=30,
              suppress_health_check=[HealthCheck.too_slow])
    def test_ttl_staleness_bounded_by_window(self, schedule, ttl):
        """TTL's real guarantee: if a read returns a superseded value, the
        write that superseded it happened at most one TTL ago (the served
        entry was current when fetched, and fetches expire after ttl)."""
        harness = ConsistencyHarness("ttl", num_caches=1, ttl_s=ttl)
        write_history = {key: [] for key in range(4)}
        for key in range(4):
            harness.write(key, (key, harness.clock.now))
            write_history[key].append(harness.clock.now)
        for op, key in schedule:
            harness.advance(0.3)
            if op == "write":
                harness.write(key, (key, harness.clock.now))
                write_history[key].append(harness.clock.now)
            else:
                value = harness.read(0, key)
                _, written_at = value
                overwrites = [t for t in write_history[key]
                              if t > written_at]
                if overwrites:  # served value is stale
                    first_overwrite = min(overwrites)
                    assert (harness.clock.now - first_overwrite
                            <= ttl + 1e-9)


class TestHl7Robustness:
    @given(garbage=st.text(max_size=200))
    @_NO_DEADLINE
    def test_parser_never_crashes_unexpectedly(self, garbage):
        """Arbitrary text either parses or raises ValidationError."""
        try:
            hl7_to_bundle(garbage, "fuzz")
        except ValidationError:
            pass

    @given(field_values=st.lists(
        st.text(alphabet=st.characters(blacklist_characters="|\r^\n",
                                       blacklist_categories=("Cs",)),
                max_size=12),
        min_size=0, max_size=10))
    @_NO_DEADLINE
    def test_pid_variants_parse_or_reject(self, field_values):
        message = ("MSH|^~\\&|A|||||20240101|ORU^R01|m|P|2.5\r"
                   "PID|" + "|".join(field_values))
        try:
            bundle = hl7_to_bundle(message, "fuzz")
            assert bundle.entries  # if it parses, a Patient exists
        except ValidationError:
            pass


class TestDeltProperties:
    @given(effect=st.floats(-2.0, 2.0), seed=st.integers(0, 50))
    @settings(deadline=None, max_examples=15,
              suppress_health_check=[HealthCheck.too_slow])
    def test_single_drug_effect_sign_recovered(self, effect, seed):
        """With one drug and clean data, the estimate tracks the effect."""
        rng = np.random.default_rng(seed)
        patients = []
        for i in range(40):
            times = np.sort(rng.uniform(0, 100, size=12))
            exposures = np.zeros((12, 1))
            exposures[6:, 0] = 1.0
            values = (5.0 + rng.normal() * 0.5
                      + exposures[:, 0] * effect
                      + rng.normal(scale=0.05, size=12))
            patients.append(PatientSeries(f"p{i}", times, values, exposures))
        result = DeltModel(n_drugs=1, ridge=0.1).fit(patients)
        assert abs(result.effects[0] - effect) < 0.2
