"""Tests for bounded stream queues and the shedding policies."""

import pytest

from repro.streaming import (AdaptiveShedPolicy, DropOldestPolicy,
                             PriorityShedPolicy, StreamQueue)
from repro.streaming.feed import StreamEvent
from repro.streaming.queues import PROTECT_PRIORITY


def _event(i, priority=1, event_class="adt.census", arrival=None):
    return StreamEvent(event_id=f"e-{i:03d}",
                       arrival_s=float(i) if arrival is None else arrival,
                       patient_id=f"p-{i % 4}", tenant_id="t",
                       event_class=event_class, priority=priority)


class TestAdmission:
    def test_admits_until_capacity(self):
        queue = StreamQueue("q", capacity=3)
        results = [queue.offer(_event(i)) for i in range(3)]
        assert all(r.admitted and r.shed_event is None for r in results)
        assert queue.depth == 3

    def test_pop_is_fifo(self):
        queue = StreamQueue("q", capacity=4)
        for i in range(4):
            queue.offer(_event(i))
        assert [queue.pop().event_id for _ in range(4)] == \
            ["e-000", "e-001", "e-002", "e-003"]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            StreamQueue("q", capacity=0)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            StreamQueue("q", capacity=1).pop()


class TestDropOldest:
    def test_full_queue_evicts_head(self):
        queue = StreamQueue("q", capacity=2, policy=DropOldestPolicy())
        queue.offer(_event(0))
        queue.offer(_event(1))
        result = queue.offer(_event(2))
        assert result.admitted
        assert result.shed_event.event_id == "e-000"
        assert result.reason == "queue-full"
        assert [queue.pop().event_id, queue.pop().event_id] == \
            ["e-001", "e-002"]


class TestPriorityShed:
    def test_higher_priority_evicts_lowest(self):
        queue = StreamQueue("q", capacity=2, policy=PriorityShedPolicy())
        queue.offer(_event(0, priority=1))
        queue.offer(_event(1, priority=3))
        result = queue.offer(_event(2, priority=2))
        assert result.admitted
        assert result.shed_event.event_id == "e-000"
        assert result.reason == "priority"

    def test_equal_priority_sheds_the_arrival(self):
        queue = StreamQueue("q", capacity=2, policy=PriorityShedPolicy())
        queue.offer(_event(0, priority=2))
        queue.offer(_event(1, priority=2))
        result = queue.offer(_event(2, priority=2))
        assert not result.admitted
        assert result.shed_event.event_id == "e-002"
        assert queue.depth == 2

    def test_ties_evict_oldest(self):
        queue = StreamQueue("q", capacity=3, policy=PriorityShedPolicy())
        for i in range(3):
            queue.offer(_event(i, priority=1))
        result = queue.offer(_event(3, priority=2))
        assert result.shed_event.event_id == "e-000"


class TestAdaptiveShed:
    def test_below_low_watermark_never_sheds(self):
        policy = AdaptiveShedPolicy(seed=0)
        queue = StreamQueue("q", capacity=10, policy=policy)
        for i in range(5):
            assert queue.offer(_event(i)).admitted
        assert queue.shed == 0

    def test_at_high_watermark_sheds_everything_sheddable(self):
        policy = AdaptiveShedPolicy(seed=0)
        queue = StreamQueue("q", capacity=10, policy=policy)
        for i in range(9):   # protected fills never shed adaptively
            queue.offer(_event(i, priority=PROTECT_PRIORITY))
        assert policy.shed_probability(queue.depth / queue.capacity) == 1.0
        # The ramp is linear between the watermarks (0.5 and 0.9).
        assert policy.shed_probability(0.7) == pytest.approx(0.5)
        result = queue.offer(_event(9, priority=1))
        assert not result.admitted
        assert result.reason == "adaptive"

    def test_protected_priority_rides_through(self):
        policy = AdaptiveShedPolicy(seed=0)
        queue = StreamQueue("q", capacity=4, policy=policy)
        for i in range(8):
            queue.offer(_event(i, priority=PROTECT_PRIORITY,
                               event_class="lab.hba1c"))
        # Protected events fall back to drop-oldest at capacity: all
        # admitted, overflow victims explicitly shed.
        assert queue.depth == 4
        assert queue.shed == 4
        assert queue.shed_by_reason == {"queue-full": 4}

    def test_deterministic_under_seed(self):
        def run(seed):
            policy = AdaptiveShedPolicy(seed=seed)
            queue = StreamQueue("q", capacity=6, policy=policy)
            return [queue.offer(_event(i)).admitted for i in range(30)]
        assert run(7) == run(7)
        assert run(7) != run(8)


class TestLedger:
    def test_offered_equals_popped_plus_shed_plus_depth(self):
        queue = StreamQueue("q", capacity=3, policy=PriorityShedPolicy())
        for i in range(12):
            queue.offer(_event(i, priority=i % 3))
            if i % 4 == 0 and queue.depth:
                queue.pop()
        assert queue.offered == queue.popped + queue.shed + queue.depth

    def test_describe_accounts_by_reason_and_class(self):
        queue = StreamQueue("q", capacity=1, policy=DropOldestPolicy())
        queue.offer(_event(0, event_class="adt.census"))
        queue.offer(_event(1, event_class="lab.hba1c"))
        description = queue.describe()
        assert description["shed_by_reason"] == {"queue-full": 1}
        assert description["shed_by_class"] == {"adt.census": 1}
        assert description["peak_depth"] == 1
