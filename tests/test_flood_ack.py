"""Flood acknowledgement: one delayed ack per port and one retransmission
list per neighbour.

A member owes its neighbour an ack for every flooded copy (LSA or
directory update) that arrives on a port; the first copy owed starts
the port's ack delay, ``flood_ack_timeout * ACK_DELAY_SHARE``, and one
``M_WRITE_R`` on ``FLOOD_ACK_OBJ`` then lists them all.  The sender
keeps each neighbour's unacked copies in one ``DeadlineFifo`` and
resends a copy still unacked ``flood_ack_timeout`` after a send,
``flood_attempts`` sends in all.

The plants are small chains with anti-entropy refresh off, so the only
flooding is what a test starts.  Every hop-scoped management send is
recorded at ``Ipcp.send_mgmt_on_port``, where a test can also drop it.
"""

import pytest

from repro.core import (Dif, DifPolicies, Orchestrator, add_shims,
                        build_dif_over, make_systems, shim_between)
from repro.core import ipcp as ipcp_module
from repro.core.directory import DIRECTORY_OBJ
from repro.core.ipcp import Ipcp
from repro.core.riep import (FLOOD_ACK_OBJ, DeadlineFifo,
                             estimate_value_size)
from repro.core.routing import LSA_OBJ
from repro.sim.engine import Engine
from repro.sim.network import Network

TIMEOUT = 0.4                       # DifPolicies' flood_ack_timeout default
ATTEMPTS = 4                        # and its flood_attempts default


class Wire:
    """Every ``(time, system, message)`` a member sent hop-scoped; a send
    ``drop(ipcp, message)`` refuses never reaches the RMT."""

    def __init__(self):
        self.sends = []
        self.drop = None

    def acks(self, system, since=0.0):
        return [(time, message) for time, name, message in self.sends
                if name == system and time >= since
                and message.obj == FLOOD_ACK_OBJ]

    def lsas(self, system, since=0.0):
        return [(time, message) for time, name, message in self.sends
                if name == system and time >= since
                and message.obj == LSA_OBJ]


@pytest.fixture
def wire(monkeypatch):
    wire = Wire()
    send = Ipcp.send_mgmt_on_port

    def recorded(self, port_id, message):
        if wire.drop is not None and wire.drop(self, message):
            return True
        wire.sends.append((self.engine.now, self.system_name, message))
        return send(self, port_id, message)
    monkeypatch.setattr(Ipcp, "send_mgmt_on_port", recorded)
    return wire


def chain(n):
    """``n`` systems in a row, one DIF over their shims, enrolled."""
    network = Network(seed=1)
    names = [f"s{i}" for i in range(n)]
    for name in names:
        network.add_node(name)
    for left, right in zip(names, names[1:]):
        network.connect(left, right)
    systems = make_systems(network)
    add_shims(systems, network)
    dif = Dif("d", DifPolicies(keepalive_interval=0.2, refresh_interval=None))
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, dif, systems, adjacencies=[
        (a, b, shim_between(network, a, b))
        for a, b in zip(names, names[1:])])
    orchestrator.run(timeout=60)
    network.run(until=network.engine.now + 2.0)     # let enrollment settle
    return network, {name: systems[name].ipcp("d") for name in names}


def originate(ipcp, count):
    """Re-originate ``ipcp``'s LSA ``count`` times at this instant."""
    for _ in range(count):
        ipcp.routing.refresh()


class TestDelayedAck:
    def test_one_flush_acks_every_copy_a_port_brought_in(self, wire):
        network, members = chain(2)
        start = network.engine.now
        originate(members["s0"], 3)
        network.run(until=start + 1.0)
        copies = wire.lsas("s0", start)
        assert len(copies) == 3
        (ack_time, ack), = wire.acks("s1", start)
        assert ack.value == [message.invoke_id for _t, message in copies]
        # the ack waits one ack delay after the first copy arrived
        delay = TIMEOUT * ipcp_module.ACK_DELAY_SHARE
        assert start + delay < ack_time < start + 2 * delay
        # nothing was resent, and nothing is left to resend
        assert network.tracer.counter_value("mgmt.flood-retx") == 0
        assert not members["s0"]._unacked[members["s1"].address].pending

    def test_a_dropped_copy_is_resent_each_timeout_then_given_up(self, wire):
        network, members = chain(2)
        dropped = []

        def drop(ipcp, message):
            if ipcp.system_name == "s0" and message.obj == LSA_OBJ:
                dropped.append(network.engine.now)
                return True
            return False
        wire.drop = drop
        start = network.engine.now
        originate(members["s0"], 1)
        network.run(until=start + ATTEMPTS * TIMEOUT + 1.0)
        assert len(dropped) == ATTEMPTS
        gaps = [b - a for a, b in zip(dropped, dropped[1:])]
        assert gaps == pytest.approx([TIMEOUT] * (ATTEMPTS - 1))
        assert network.tracer.counter_value("mgmt.flood-retx") == ATTEMPTS - 1
        assert not wire.acks("s1", start)
        assert not members["s0"]._unacked[members["s1"].address].pending

    def test_a_lost_ack_resends_what_it_covered_once(self, wire):
        network, members = chain(3)
        lost = []

        def drop_first_ack(ipcp, message):
            # s1 acks s0 alone: s2 floods nothing back
            if (ipcp.system_name == "s1" and message.obj == FLOOD_ACK_OBJ
                    and not lost):
                lost.append(message)
                return True
            return False
        wire.drop = drop_first_ack
        start = network.engine.now
        originate(members["s0"], 3)
        network.run(until=start + 2 * TIMEOUT + 0.5)
        copies = wire.lsas("s0", start)
        ids = [message.invoke_id for _t, message in copies]
        # the three copies, then each resent exactly once, same ids
        assert len(copies) == 6 and ids[3:] == ids[:3]
        assert [t for t, _m in copies[3:]] == pytest.approx(
            [t + TIMEOUT for t, _m in copies[:3]])
        assert network.tracer.counter_value("mgmt.flood-retx") == 3
        assert lost[0].value == ids[:3]
        # the duplicates are acked again and not flooded on to s2
        (_t, reack), = wire.acks("s1", start)
        assert reack.value == ids[:3]
        assert len(wire.lsas("s1", start)) == 3
        assert not members["s0"]._unacked[members["s1"].address].pending

    def test_no_live_port_at_the_deadline_gives_the_copy_up(self, wire):
        network, members = chain(2)
        s0, s1 = members["s0"], members["s1"]
        wire.drop = lambda ipcp, message: (ipcp is s0
                                           and message.obj == LSA_OBJ)
        originate(s0, 1)
        (port,) = s0.rmt.ports_to(s1.address)
        s0.remove_lower_flow(port.port_id)      # the attachment is lost
        network.run(until=network.engine.now + TIMEOUT + 0.01)
        assert network.tracer.counter_value("mgmt.flood-retx") == 0
        assert not s0._unacked[s1.address].pending


class TestAckSize:
    def test_every_ack_reports_the_size_its_value_walks_to(self, wire):
        network, members = chain(3)
        start = network.engine.now
        originate(members["s0"], 1)
        network.run(until=start + 1.0)
        originate(members["s0"], 3)
        network.run(until=start + 2.0)
        acks = [message for _t, _s, message in wire.sends
                if message.obj == FLOOD_ACK_OBJ]
        assert {len(ack.value) for ack in acks} >= {1, 3}
        for ack in acks:
            walked = (len(ack.opcode) + len(ack.obj) + 12
                      + estimate_value_size(ack.value))
            assert ack.estimate_size() == walked


class TestZeroDelay:
    def test_zero_share_acks_every_copy_alone(self, wire, monkeypatch):
        # the old per-copy ack is this mechanism at an ack delay of 0
        monkeypatch.setattr(ipcp_module, "ACK_DELAY_SHARE", 0)
        from repro.experiments.e6_scalability import run_scale
        run_scale("flat", 5, 10)
        acks = [m for _t, _s, m in wire.sends if m.obj == FLOOD_ACK_OBJ]
        copies = [m for _t, _s, m in wire.sends
                  if m.obj in (LSA_OBJ, DIRECTORY_OBJ)]
        assert copies
        assert len(acks) == len(copies)
        assert all(len(ack.value) == 1 for ack in acks)


class TestCrash:
    def test_nothing_owed_or_unacked_leaves_after_a_crash(self, wire):
        network, members = chain(3)
        s1 = members["s1"]
        originate(members["s0"], 3)
        # run until s1 owes s0 acks and has copies unacked by s2
        network.run(until=network.engine.now + 0.02)
        assert s1._acks_due.pending
        assert s1._unacked[members["s2"].address].pending
        crashed_at = network.engine.now
        s1.crash()
        assert not s1._unacked and not s1._acks_due.pending
        network.run(until=crashed_at + 3 * TIMEOUT)
        assert not [m for t, name, m in wire.sends
                    if name == "s1" and t >= crashed_at]
        # every flooding timer has drained: crash the rest, and the
        # engine runs dry
        for member in members.values():
            if member is not s1:
                member.crash()
        network.engine.run()
        assert network.engine.next_event_time() is None


class ArmLog(Engine):
    """An engine that records the instant of every event armed on it."""

    def __init__(self):
        super().__init__()
        self.armed = []

    def call_at(self, when, callback, *args, label=""):
        self.armed.append(when)
        return super().call_at(when, callback, *args, label=label)


def fifo(delay=1.0):
    engine = ArmLog()
    expired = []
    queue = DeadlineFifo(
        engine, delay,
        lambda key, value: expired.append((engine.now, key, value)), "t")
    return engine, queue, expired


def at(engine, when, action):
    """Run ``engine`` to ``when``, then do ``action``."""
    engine.run(until=when)
    action()


class TestDeadlineFifo:
    """The queue both flood-ack lists are: every key expires one delay
    after it was added, in the order added, unless settled first."""

    def test_keys_expire_in_the_order_added(self):
        engine, queue, expired = fifo()
        for when, key in ((0.0, "a"), (0.25, "b"), (0.25, "c"), (0.5, "d")):
            at(engine, when, lambda key=key: queue.setdefault(key, key * 2))
        assert queue.setdefault("a", "other") == "aa"     # already pending
        engine.run()
        assert expired == [(1.0, "a", "aa"), (1.25, "b", "bb"),
                           (1.25, "c", "cc"), (1.5, "d", "dd")]
        assert not queue.pending

    def test_a_key_settled_before_its_deadline_never_expires(self):
        engine, queue, expired = fifo()
        queue.setdefault("a", 1)
        at(engine, 0.25, lambda: queue.setdefault("b", 2))
        at(engine, 0.5, lambda: queue.pending.pop("b"))
        engine.run()
        assert expired == [(1.0, "a", 1)]

    def test_a_settled_head_rearms_at_the_next_live_key(self):
        engine, queue, expired = fifo()
        queue.setdefault("a", 1)
        at(engine, 0.25, lambda: queue.setdefault("b", 2))
        at(engine, 0.5, lambda: queue.setdefault("c", 3))
        at(engine, 0.75, lambda: queue.pending.pop("a"))
        engine.run()
        assert expired == [(1.25, "b", 2), (1.5, "c", 3)]

    def test_armed_instants(self):
        # one event at a time, at the head's deadline: a settled head
        # still fires at its own deadline and re-arms from there, and a
        # key added while that event is armed arms nothing new
        engine, queue, expired = fifo()
        queue.setdefault("a", 1)
        at(engine, 0.25, lambda: queue.setdefault("b", 2))
        at(engine, 0.5, lambda: queue.pending.pop("a"))
        at(engine, 0.6, lambda: queue.pending.pop("b"))
        at(engine, 0.75, lambda: queue.setdefault("c", 3))
        engine.run()
        assert engine.armed == [1.0, 1.75]
        assert expired == [(1.75, "c", 3)]
        # idle again: the next key arms its own deadline
        start = engine.now
        queue.setdefault("d", 4)
        at(engine, start + 0.5, lambda: queue.setdefault("e", 5))
        engine.run()
        assert engine.armed == [1.0, 1.75, start + 1.0, start + 1.5]
        assert expired[1:] == [(start + 1.0, "d", 4), (start + 1.5, "e", 5)]

    def test_a_key_added_again_after_a_clear_waits_a_full_delay(self):
        # crash() clears both lists; a key the member owes again must not
        # inherit the deadline its cleared predecessor had
        engine, queue, expired = fifo()
        queue.setdefault("port", 1)
        at(engine, 0.25, queue.pending.clear)
        queue.setdefault("port", 2)
        engine.run()
        assert expired == [(1.25, "port", 2)]
        assert engine.armed == [1.0, 1.25]
