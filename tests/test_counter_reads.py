"""Counters read from their owners equal counting every event.

``link.delivered`` and ``flood.announced`` / ``flood.delivered`` /
``flood.duplicate`` are not counted per frame: the tracer reads
``Link.frames_delivered`` (boundary half-links included) and the
:class:`~repro.shard.flood.FloodNode` fields when it renders.  These
tests put the per-event counts back beside them, under an ``event.``
prefix, by wrapping the calls each one used to count in, and check the
two agree on a sharded flood and on a link failed mid-run.  A frame is
delivered by ``Link._deliver`` on a whole link and by
``BoundaryHalf.deliver_inbound`` on a half-link, each while the link
is up.
"""

import pytest

from repro.shard import (LinkSpec, NetworkSpec, RegionPlan,
                         all_nodes_announce, attach_flood, run_sharded)
from repro.shard.engine import BoundaryHalf
from repro.shard.flood import FloodNode
from repro.sim.link import Link

OWNER_READ = ("link.delivered", "flood.announced", "flood.delivered",
              "flood.duplicate")


@pytest.fixture
def per_event(monkeypatch):
    """Count each owner-read counter per event again, as ``event.<name>``
    in the same tracer the owner's read lands in."""
    deliver = Link._deliver
    deliver_inbound = BoundaryHalf.deliver_inbound
    announce = FloodNode.announce
    receive = FloodNode._receive

    def counted_deliver(link, direction, payload, size):
        if link.up:
            link._tracer.count("event.link.delivered")
        deliver(link, direction, payload, size)

    def counted_deliver_inbound(half, payload, size):
        if half.up:
            half._tracer.count("event.link.delivered")
        deliver_inbound(half, payload, size)

    def counted_announce(flood, size_bytes=64):
        flood._interfaces[0].end.link._tracer.count("event.flood.announced")
        announce(flood, size_bytes)

    def counted_receive(flood, from_end, payload, size):
        before = flood.received
        receive(flood, from_end, payload, size)
        name = ("event.flood.delivered" if flood.received > before
                else "event.flood.duplicate")
        from_end.link._tracer.count(name)

    monkeypatch.setattr(Link, "_deliver", counted_deliver)
    monkeypatch.setattr(BoundaryHalf, "deliver_inbound",
                        counted_deliver_inbound)
    monkeypatch.setattr(FloodNode, "announce", counted_announce)
    monkeypatch.setattr(FloodNode, "_receive", counted_receive)


def ring(count=6):
    """A ring, so a flood meets itself: every node hears duplicates."""
    nodes = tuple(f"n{i}" for i in range(count))
    links = tuple(LinkSpec(a=nodes[i], b=nodes[(i + 1) % count],
                           name=f"n{i}--n{(i + 1) % count}",
                           delay=0.002 + 0.0003 * i)
                  for i in range(count))
    return NetworkSpec(nodes=nodes, links=links)


def _counters(trace_text):
    values = {}
    for line in trace_text.splitlines():
        if line.startswith("counter "):
            name, value = line[len("counter "):].split("=")
            values[name] = int(value)
    return values


def _assert_owner_reads_match(counters):
    for name in OWNER_READ:
        assert counters.get(name, 0) == counters.get(f"event.{name}", 0), name
    assert counters["link.delivered"] > 0
    assert counters["flood.duplicate"] > 0


def test_two_region_sharded_flood(per_event):
    spec = ring()
    plan = RegionPlan(spec, {node: int(node[1:]) // 3 for node in spec.nodes})
    assert len(plan.boundary) == 2
    result = run_sharded(plan, all_nodes_announce(spec.nodes), seed=0,
                         mode="inline")
    assert len(result.traces) == 2
    for trace in result.traces:
        counters = _counters(trace)
        _assert_owner_reads_match(counters)
        # each of the region's three nodes heard the five others, the
        # other region's three through a boundary half-link
        assert counters["flood.delivered"] == 3 * 5


def test_link_failed_mid_run(per_event):
    spec = ring()
    network = spec.build(seed=1)
    floods = attach_flood(network, all_nodes_announce(spec.nodes))
    cut = network.links["n0--n1"]
    network.engine.call_at(0.0035, cut.fail)   # frames in flight both ways
    network.run()
    counters = network.tracer.counters()
    _assert_owner_reads_match(counters)
    assert counters["flood.delivered"] == sum(f.received
                                              for f in floods.values())
    assert network.tracer.counter_value("link.delivered") == sum(
        sum(link.frames_delivered) for link in network.links.values())
    # the failure cost frames: some went down with the link
    assert cut.frames_sent[0] + cut.frames_sent[1] > sum(cut.frames_delivered)
