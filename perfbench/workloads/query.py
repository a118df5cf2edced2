"""``query``: knowledge-base reads through the platform's API gateway.

Eight tenants (Zipf 1.1 over tenants) read drug targets from a 2000-drug
``DrugBankLike`` knowledge base (Zipf 0.9 over drugs) through one
tenant-scoped route that the benchmark registers on
``HealthCloudPlatform.build_api_gateway()``, with a ``HealthPlane``
attached.  Behind the route sit a two-level ``CacheHierarchy`` (client
LRU of 64, server TinyLFU of 256) and a ``RemoteKnowledgeBase`` whose
calls run under a ``ResilientExecutor``; the WAN link drops 1% of calls
(seeded), so retries happen.  About one request in five is a batched
lookup of 16-64 ids.  The working set exceeds the caches, so the hit
ratio stays well below one.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro import HealthCloudPlatform
from repro.caching.hierarchy import CacheHierarchy, CacheLevel, Origin
from repro.caching.policies import make_cache
from repro.cloudsim.faults import FaultPlan
from repro.cloudsim.healthplane import HealthPlane
from repro.core.api import ApiRequest, RouteSpec
from repro.core.resilience import ResiliencePolicy, ResilientExecutor
from repro.knowledge.bases import DrugBankLike
from repro.knowledge.remote import RemoteKnowledgeBase
from repro.knowledge.synthetic import generate_universe
from repro.rbac.federation import ExternalIdentityProvider
from repro.rbac.model import Action, Permission, Scope, ScopeKind
from repro.workloads.traces import zipf_trace

from ..harness import Recorder, sim_digest

N_TENANTS = 8
N_DRUGS = 2000
TENANT_SKEW = 1.1
DRUG_SKEW = 0.9
BATCH_SHARE = 0.2
BATCH_SIZES = (16, 64)        # inclusive range of a batched lookup
N_REQUESTS = 50_000           # the request list repeats after these
CLIENT_CAPACITY, CLIENT_COST_S = 64, 50e-6
SERVER_CAPACITY, SERVER_COST_S = 256, 2e-3
# Chosen for this benchmark, not taken from a scenario: drops frequent
# enough that retries shape the tail, rare enough that a call fails all
# MAX_ATTEMPTS only with probability 1e-10, so every request succeeds.
DROP_RATE = 0.01
MAX_ATTEMPTS = 5
DIGEST_AFTER = 20_000
IDP_SECRET = b"perfbench-idp-secret"


class QueryWorkload:
    tail_p = 99.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.platform = platform = HealthCloudPlatform(seed=seed)
        clock = platform.clock
        HealthPlane(platform.monitoring, seed=seed)   # attaches itself

        started = time.perf_counter()
        universe = generate_universe(n_drugs=N_DRUGS, n_diseases=8,
                                     n_abstracts=10, seed=seed)
        rng = np.random.default_rng(seed)
        tenant_seed, key_seed = (int(s) for s in rng.integers(2 ** 31,
                                                              size=2))
        drug_ids = [drug.drug_id for drug in universe.drugs]
        by_popularity = [drug_ids[i] for i in rng.permutation(N_DRUGS)]
        tenants = zipf_trace(N_TENANTS, N_REQUESTS, TENANT_SKEW,
                             seed=tenant_seed)
        batched = rng.random(N_REQUESTS) < BATCH_SHARE
        sizes = np.where(batched, rng.integers(BATCH_SIZES[0],
                                               BATCH_SIZES[1] + 1,
                                               N_REQUESTS), 1)
        keys = zipf_trace(N_DRUGS, int(sizes.sum()), DRUG_SKEW,
                          seed=key_seed)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        self.requests = [
            (int(tenants[i]), bool(batched[i]),
             tuple(by_popularity[k] for k in keys[bounds[i]:bounds[i + 1]]))
            for i in range(N_REQUESTS)]
        self.inputs_s = time.perf_counter() - started

        self.kb = DrugBankLike(universe)
        self.executor = ResilientExecutor(
            ResiliencePolicy(max_attempts=MAX_ATTEMPTS, jitter=0.0,
                             seed=seed),
            clock=clock, monitoring=platform.monitoring)
        self.remote = RemoteKnowledgeBase(self.kb, clock,
                                          resilience=self.executor)
        plan = FaultPlan(seed=seed, clock=clock)
        plan.drop_link(*self.remote.link, DROP_RATE)
        self.remote.fault_plan = plan
        self.cache = CacheHierarchy(
            [CacheLevel("client", make_cache("lru", CLIENT_CAPACITY),
                        CLIENT_COST_S),
             CacheLevel("server", make_cache("tinylfu", SERVER_CAPACITY),
                        SERVER_COST_S)],
            Origin("drugbank",
                   loader=lambda key: self.remote.call("targets", key),
                   batch_loader=lambda keys: self.remote.call_batch(
                       "targets_many", keys),
                   access_cost_s=0.0),
            clock=clock, monitoring=platform.monitoring)

        self.gateway = platform.build_api_gateway(rate_limit=10 ** 9)
        self.gateway.register_route(RouteSpec(
            path="/kb/targets", handler=self._targets, action=Action.READ,
            resource_type="knowledge", scope_kind=ScopeKind.TENANT,
            description="drug targets, one id or a batch"))
        idp = ExternalIdentityProvider("idp", IDP_SECRET, clock)
        platform.federation.approve_idp("idp", IDP_SECRET)
        self.callers = []
        for t in range(N_TENANTS):
            context = platform.register_tenant(f"tenant-{t}")
            tenant_id = context.tenant.tenant_id
            user = platform.rbac.register_user(tenant_id, f"analyst-{t}")
            platform.rbac.define_role(f"kb-reader-{t}", [Permission(
                Action.READ, "knowledge", Scope(ScopeKind.TENANT,
                                                tenant_id))])
            platform.rbac.bind_role(user.user_id, context.default_org.org_id,
                                    context.default_env.env_id,
                                    f"kb-reader-{t}")
            subject = f"analyst-{t}@tenant-{t}"
            platform.federation.link_identity("idp", subject, user.user_id)
            self.callers.append((idp.issue_token(subject, ttl_s=1e9),
                                 tenant_id, context.default_org.org_id,
                                 context.default_env.env_id))
        self.digest = None
        self.statuses: Dict[int, int] = {}
        self.wrong = 0        # responses not 200 or not the KB's answer

    def _targets(self, context, drug_id=None, drug_ids=None):
        if drug_ids is not None:
            values = self.cache.get_many(drug_ids).values
            return {d: sorted(values[d]) for d in drug_ids}
        return {drug_id: sorted(self.cache.get(drug_id).value)}

    def run(self, seconds: float, rec: Recorder) -> None:
        clock = self.platform.clock
        dispatch = self.gateway.dispatch
        deadline = time.perf_counter() + seconds
        number = 0
        while True:
            tenant, batched, ids = self.requests[number % N_REQUESTS]
            number += 1
            token, tenant_id, org_id, env_id = self.callers[tenant]
            params = {"drug_ids": ids} if batched else {"drug_id": ids[0]}
            request = ApiRequest(path="/kb/targets", token=token,
                                 scope_entity_id=tenant_id, org_id=org_id,
                                 env_id=env_id, params=params)
            sim_start = clock.now
            started = time.perf_counter()
            response = dispatch(request)
            wall = time.perf_counter() - started
            self.statuses[response.status] = (
                self.statuses.get(response.status, 0) + 1)
            ok = response.status == 200 and response.body == {
                d: sorted(self.kb.targets(d)) for d in ids}
            rec.sample(wall, clock.now - sim_start, ok=int(ok))
            self.wrong += not ok
            if number == DIGEST_AFTER:
                self.digest = sim_digest(self.sim_fields())
                rec.mark_prefix()
            if number >= DIGEST_AFTER and time.perf_counter() > deadline:
                return

    def sim_fields(self) -> Dict:
        return {"sim_now": self.platform.clock.now,
                "levels": [(name, stats.hits, stats.misses)
                           for name, stats in self.cache.stats_by_level()],
                "origin_loads": self.cache.origin_loads,
                "remote_calls": self.remote.remote_calls,
                "failed_calls": self.remote.failed_calls,
                "statuses": sorted(self.statuses.items()),
                "log_head": self.platform.monitoring.logs.entries()[-1]
                .entry_hash}

    def check(self) -> List[str]:
        problems = []
        if not self.platform.monitoring.logs.verify_chain():
            problems.append("audit log hash chain does not verify")
        if self.wrong:
            problems.append(f"{self.wrong} responses were not 200 with the "
                            f"KB's answer (statuses {self.statuses})")
        return problems

    def counts(self, ops: int) -> Dict[str, float]:
        metrics = self.platform.monitoring.metrics
        levels = dict(self.cache.stats_by_level())
        name = f"kb.{self.remote.name}"
        return {
            "cloudsim.monitoring.log_entries_per_op":
                len(self.platform.monitoring.logs.entries()) / ops,
            "caching.hit_ratio.client": levels["client"].hit_ratio,
            "caching.hit_ratio.server": levels["server"].hit_ratio,
            "caching.origin_fetches_per_op": self.cache.origin_loads / ops,
            "knowledge.remote.remote_calls_per_op":
                self.remote.remote_calls / ops,
            "core.resilience.attempts": sum(
                metrics.counter(f"resilience.{name}.{outcome}")
                for outcome in ("success", "failures", "timeouts")),
        }
