"""Shared conformance suite for every RMT scheduler policy.

The three disciplines (FIFO, strict priority, DRR) previously had only
spot checks; here one parametrized suite pins the properties the RMT
relies on regardless of policy:

* **work conservation** — a non-empty scheduler always serves something;
* **no reordering within a flow** — PDUs of one connection (same CEP
  pair, hence one priority class) leave in arrival order;
* **drop accounting** — every pushed PDU is either served exactly once or
  returned as displaced exactly once; occupancy never exceeds the limit
  and always equals pushes − drops − pops.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.names import Address
from repro.core.pdu import DataPdu
from repro.core.rmt import DrrScheduler, FifoScheduler, PriorityScheduler

SCHEDULER_FACTORIES = {
    "fifo": lambda limit=256: FifoScheduler(limit=limit),
    "priority": lambda limit=256: PriorityScheduler(limit=limit),
    "drr": lambda limit=256: DrrScheduler(limit=limit, quantum=1500),
}

_seq = itertools.count()


def pdu(flow: int = 0, priority: int = 0, size: int = 100) -> DataPdu:
    """One PDU of a given flow; the flow id doubles as the CEP pair."""
    return DataPdu(Address(99), Address(1), flow, flow + 1000, next(_seq),
                   b"x", size, priority=priority)


@pytest.fixture(params=sorted(SCHEDULER_FACTORIES), ids=str)
def factory(request):
    return SCHEDULER_FACTORIES[request.param]


class TestWorkConservation:
    def test_nonempty_scheduler_always_serves(self, factory):
        scheduler = factory()
        for index in range(40):
            assert scheduler.push(pdu(flow=index % 3,
                                      priority=index % 4)) is None
        served = 0
        while len(scheduler) > 0:
            assert scheduler.pop() is not None, \
                "non-empty scheduler refused to serve"
            served += 1
        assert served == 40

    def test_empty_pop_returns_none(self, factory):
        scheduler = factory()
        assert scheduler.pop() is None
        scheduler.push(pdu())
        scheduler.pop()
        assert scheduler.pop() is None

    def test_drains_to_zero_after_interleaved_ops(self, factory):
        scheduler = factory()
        for round_ in range(10):
            for index in range(5):
                scheduler.push(pdu(flow=index, priority=index % 3))
            for _ in range(3):
                assert scheduler.pop() is not None
        while scheduler.pop() is not None:
            pass
        assert len(scheduler) == 0


class TestNoReorderingWithinFlow:
    def test_single_flow_strict_fifo(self, factory):
        scheduler = factory()
        pdus = [pdu(flow=7, priority=2) for _ in range(20)]
        for p in pdus:
            assert scheduler.push(p) is None
        out = [scheduler.pop() for _ in range(20)]
        assert [p.seq for p in out] == [p.seq for p in pdus]

    def test_interleaved_flows_keep_per_flow_order(self, factory):
        scheduler = factory()
        flows = {0: [], 1: [], 2: []}
        priorities = {0: 0, 1: 4, 2: 9}   # one class per flow
        for round_ in range(12):
            flow = round_ % 3
            p = pdu(flow=flow, priority=priorities[flow])
            flows[flow].append(p.seq)
            assert scheduler.push(p) is None
        served = {0: [], 1: [], 2: []}
        while True:
            p = scheduler.pop()
            if p is None:
                break
            served[p.src_cep].append(p.seq)
        for flow, sent in flows.items():
            assert served[flow] == sent, \
                f"flow {flow} reordered: {served[flow]} vs {sent}"


class TestMixedOpsOrderPreservation:
    """Regression suite for the deque refactor: per-flow FIFO order must
    survive arbitrary interleavings of enqueue and dequeue, not just the
    drain-after-fill patterns the earlier tests used."""

    def test_alternating_push_pop_single_flow(self, factory):
        scheduler = factory()
        sent, served = [], []
        for index in range(30):
            p = pdu(flow=3, priority=1)
            sent.append(p.seq)
            scheduler.push(p)
            if index % 2 == 1:          # pop every other round
                out = scheduler.pop()
                served.append(out.seq)
        while True:
            out = scheduler.pop()
            if out is None:
                break
            served.append(out.seq)
        assert served == sent

    def test_bursty_mixed_ops_keep_per_flow_order(self, factory):
        scheduler = factory()
        sent = {0: [], 1: [], 2: []}
        served = {0: [], 1: [], 2: []}
        priorities = {0: 0, 1: 3, 2: 7}
        for burst in range(8):
            for index in range(5):       # burst of pushes
                flow = (burst + index) % 3
                p = pdu(flow=flow, priority=priorities[flow])
                sent[flow].append(p.seq)
                scheduler.push(p)
            for _ in range(3):           # partial drain
                out = scheduler.pop()
                if out is not None:
                    served[out.src_cep].append(out.seq)
        while True:
            out = scheduler.pop()
            if out is None:
                break
            served[out.src_cep].append(out.seq)
        for flow in sent:
            assert served[flow] == sent[flow], f"flow {flow} reordered"

    @pytest.mark.parametrize("policy", sorted(SCHEDULER_FACTORIES))
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.integers(min_value=-1, max_value=8), min_size=1,
                        max_size=150))
    def test_property_mixed_ops_never_reorder_a_flow(self, policy, ops):
        scheduler = SCHEDULER_FACTORIES[policy]()
        sent = {flow: [] for flow in range(3)}
        served = {flow: [] for flow in range(3)}
        for op in ops:
            if op < 0:
                out = scheduler.pop()
                if out is not None:
                    served[out.src_cep].append(out.seq)
            else:
                flow = op % 3
                p = pdu(flow=flow, priority=flow * 2)
                if scheduler.push(p) is None:
                    sent[flow].append(p.seq)
        while True:
            out = scheduler.pop()
            if out is None:
                break
            served[out.src_cep].append(out.seq)
        assert served == sent


class TestDropAccounting:
    def test_every_pdu_served_once_or_displaced_once(self, factory):
        limit = 8
        scheduler = factory(limit=limit)
        pushed, displaced = [], []
        for index in range(limit + 6):
            p = pdu(flow=index % 2, priority=index % 3)
            pushed.append(p)
            victim = scheduler.push(p)
            if victim is not None:
                displaced.append(victim)
            assert len(scheduler) <= limit
        assert len(displaced) == 6
        served = []
        while True:
            p = scheduler.pop()
            if p is None:
                break
            served.append(p)
        assert len(served) == limit
        # exact conservation, by identity
        assert ({id(p) for p in served} | {id(p) for p in displaced}
                == {id(p) for p in pushed})
        assert not ({id(p) for p in served} & {id(p) for p in displaced})

    def test_occupancy_tracks_pushes_minus_drops_minus_pops(self, factory):
        limit = 4
        scheduler = factory(limit=limit)
        occupancy = 0
        for index in range(20):
            victim = scheduler.push(pdu(flow=index % 3, priority=index % 4))
            if victim is None:
                occupancy += 1
            assert len(scheduler) == occupancy
            if index % 5 == 4:
                if scheduler.pop() is not None:
                    occupancy -= 1
                assert len(scheduler) == occupancy

    @pytest.mark.parametrize("policy", sorted(SCHEDULER_FACTORIES))
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.integers(min_value=-1, max_value=11), min_size=1,
                        max_size=120))
    def test_property_random_op_sequences(self, policy, ops):
        limit = 6
        scheduler = SCHEDULER_FACTORIES[policy](limit=limit)
        live = 0
        pushed = served = displaced = 0
        for op in ops:
            if op < 0:
                if scheduler.pop() is not None:
                    served += 1
                    live -= 1
            else:
                pushed += 1
                if scheduler.push(pdu(flow=op % 3, priority=op % 4)) is None:
                    live += 1
                else:
                    displaced += 1
            assert 0 <= len(scheduler) <= limit
            assert len(scheduler) == live
        while scheduler.pop() is not None:
            served += 1
        assert served + displaced == pushed


class TestDrrDeficit:
    def test_head_larger_than_twice_the_quantum_pops_in_one_call(self):
        # 4,000 B takes three top-ups of 1,500: the scan used to give up
        # after 2 * classes + 1 of them and return None while it waited
        scheduler = DrrScheduler(quantum=1500)
        big = pdu(size=4000)
        scheduler.push(big)
        assert scheduler.pop() is big
        assert len(scheduler) == 0

    @pytest.mark.parametrize("kwargs", [
        {"quantum": 0}, {"quantum": -1500},
        {"weights": {0: 0.0}}, {"weights": {0: 1.0, 2: -1.0}}])
    def test_share_that_is_not_positive_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be positive"):
            DrrScheduler(**kwargs)
