"""Property-based tests for caches, k-anonymity, and the ledger."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.blockchain.ledger import Ledger, Transaction, build_block
from repro.caching.policies import LfuCache, LruCache, TwoQueueCache
from repro.privacy.kanonymity import (
    MondrianAnonymizer,
    QuasiIdentifier,
    achieved_k,
)

_NO_DEADLINE = settings(deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


class TestCacheProperties:
    @given(capacity=st.integers(1, 32),
           operations=st.lists(
               st.tuples(st.sampled_from(["get", "put"]),
                         st.integers(0, 50)),
               max_size=300))
    @_NO_DEADLINE
    def test_capacity_never_exceeded(self, capacity, operations):
        for cache_cls in (LruCache, LfuCache, TwoQueueCache):
            cache = cache_cls(capacity)
            for op, key in operations:
                if op == "put":
                    cache.put(key, key)
                else:
                    cache.get(key)
                assert len(cache) <= capacity

    @given(capacity=st.integers(1, 16),
           keys=st.lists(st.integers(0, 20), max_size=200))
    @_NO_DEADLINE
    def test_get_after_put_consistent(self, capacity, keys):
        """A cache never returns a wrong value — only the value last put."""
        for cache_cls in (LruCache, LfuCache, TwoQueueCache):
            cache = cache_cls(capacity)
            latest = {}
            for i, key in enumerate(keys):
                cache.put(key, (key, i))
                latest[key] = (key, i)
                value = cache.get(key)
                assert value is None or value == latest[key]

    @given(capacity=st.integers(1, 16),
           keys=st.lists(st.integers(0, 30), min_size=1, max_size=100))
    @_NO_DEADLINE
    def test_stats_balance(self, capacity, keys):
        cache = LruCache(capacity)
        for key in keys:
            if cache.get(key) is None:
                cache.put(key, key)
        stats = cache.stats
        assert stats.hits + stats.misses == len(keys)


@st.composite
def cohort_rows(draw):
    n = draw(st.integers(10, 60))
    return [
        {"age": draw(st.integers(0, 100)),
         "zip": draw(st.sampled_from(["02115", "02116", "10001", "94103"])),
         "dx": draw(st.sampled_from(["a", "b", "c"]))}
        for _ in range(n)
    ]


class TestAnonymizerProperties:
    @given(rows=cohort_rows(), k=st.integers(2, 8))
    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.too_slow])
    def test_k_always_achieved(self, rows, k):
        if len(rows) < k:
            return
        anonymizer = MondrianAnonymizer(
            [QuasiIdentifier("age", numeric=True),
             QuasiIdentifier("zip", numeric=False)], k=k)
        release = anonymizer.anonymize(rows)
        assert achieved_k(release.rows, ["age", "zip"]) >= k
        assert len(release.rows) == len(rows)
        # Sensitive attribute multiset preserved.
        assert sorted(r["dx"] for r in release.rows) == sorted(
            r["dx"] for r in rows)


class TestLedgerProperties:
    @given(batches=st.lists(
        st.lists(st.integers(0, 1000), min_size=1, max_size=5),
        min_size=1, max_size=8))
    @_NO_DEADLINE
    def test_chain_always_verifies(self, batches):
        ledger = Ledger()
        counter = 0
        for batch in batches:
            transactions = []
            for value in batch:
                counter += 1
                transactions.append(Transaction(
                    tx_id=f"tx-{counter}", chaincode="provenance",
                    method="record_event", args={"v": value},
                    submitter="s", timestamp=float(counter)))
            block = build_block(ledger.height, ledger.tip_hash,
                                float(counter), transactions)
            ledger.append(block)
        assert ledger.verify()
        assert len(ledger.transactions()) == sum(len(b) for b in batches)
