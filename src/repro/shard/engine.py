"""One region's engine plus its boundary half-links.

A boundary link is cut in two.  The sending region owns the transmit
queue, the serialization clock, and the (absent, by plan validation)
loss decision — everything up to the moment the frame is "on the wire".
Where the link would schedule local delivery, the egress half records a
**timestamped boundary frame** ``(arrival_time, link, wire_payload,
size)`` with ``arrival_time = serialization end + propagation delay``;
a clean half does so when the frame is sent (:meth:`Link.transmit`).
The coordinator relays the frame between rounds, and the receiving
region's half-link delivers it at exactly ``arrival_time`` — the same
float the unsharded :class:`~repro.sim.link.Link` would have computed,
so delivery timing is bit-identical, not merely close.

``wire_payload`` is **bytes**: the payload is run through the wire
codec (:func:`repro.core.codec.encode`) when it is captured and
decoded at delivery, so a frame never carries live object references
across the cut — which is what lets the *control plane* (enrollment
RIEP, LSA floods, keepalives, flow allocation) cross persistent worker
processes, not just primitive flood tuples.  A payload the codec
rejects fails at the sender, loudly.

Each half also knows which side of the original link it owns
(``local_index``): the local node attaches to the same end it would
hold on the unsharded link, so direction indices — and everything keyed
on end identity, like the shim layer's even/odd flow-id split — match
the unsharded build exactly.

Frames whose arrival lands exactly on a region's granted horizon are
injected after that region's step ends and execute in its next step —
deterministically, since the receiving engine's clock never passes an
injection's arrival time (the grant invariant argued in
:func:`repro.shard.coordinator.grant_round`).  Because the payload is
already bytes, a round's whole batch is one envelope per direction
(:mod:`repro.shard.framing`) for the trip across a worker pipe, and
nobody between the two halves looks inside it.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

from ..core.codec import decode, encode
from ..sim.link import Link
from ..sim.network import Network
from ..sim.plant import build_plant
from .flood import FLOOD_KIND, FloodRun, attach_flood
from .plan import BoundaryPort, RegionSpec

#: (arrival_time, link_name, wire_payload, size_bytes);
#: ``wire_payload`` is the codec's encoded bytes
BoundaryFrame = Tuple[float, str, bytes, int]


def attach_workload(network: Network, workload: Dict[str, Any],
                    local_nodes: Optional[Tuple[str, ...]] = None):
    """Instantiate a workload description on one engine.

    Dispatches on ``workload["kind"]``; every workload object exposes
    the same surface (``delivery_rows`` / ``node_stat_rows`` /
    ``summary_extra`` / ``trace_lines``), so the engine, coordinator,
    and trace discipline are workload-agnostic.
    """
    kind = workload.get("kind")
    if kind == FLOOD_KIND:
        return FloodRun(attach_flood(network, workload,
                                     local_nodes=local_nodes))
    from .stateful import STATEFUL_KIND, StatefulControlPlane
    if kind == STATEFUL_KIND:
        return StatefulControlPlane(network, workload,
                                    local_nodes=local_nodes)
    raise ValueError(f"unknown workload kind {kind!r}")


def shard_summary(shard: int, nodes: int, network: Network,
                  workload) -> Dict[str, Any]:
    """One shard's summary row as a run's ``shards`` list carries it:
    ``shard`` / ``nodes`` / ``events`` / ``clock``, then the workload's
    own fields.  The sharded run and the reference run both build it
    here."""
    summary = {"shard": shard, "nodes": nodes,
               "events": network.engine.events_processed,
               "clock": network.engine.now}
    summary.update(workload.summary_extra())
    return summary


class BoundaryHalf(Link):
    """The locally owned half of a cross-region link.

    The local node attaches to end ``local_index`` — the same end it
    owns on the unsharded link — and transmits normally; the other end
    is a ghost (the real peer lives in another region's simulation).
    Egress frames land in the shard's outbox, codec-encoded, when
    they are sent, stamped with their arrival; ingress frames are injected by
    :meth:`ShardEngine.inject` and delivered through
    :meth:`deliver_inbound`, which decodes and keeps the
    delivered-frame statistics of the unsharded link (the tracer's
    ``link.delivered`` reads them through the region's network).
    """

    __slots__ = ("_outbox", "local_index")

    def __init__(self, engine, name: str, outbox: List[BoundaryFrame],
                 local_index: int = 0, **kwargs: Any) -> None:
        super().__init__(engine, name, **kwargs)
        self._outbox = outbox
        self.local_index = local_index

    def _arrival(self, direction: int, payload: Any, size: int,
                 when: float) -> None:
        # the peer region will deliver at exactly this time.  The
        # payload crosses as wire data — never as a live object.  The
        # plan refuses lossy and conditioned cuts and nothing fails a
        # half, so no captured frame is ever cancelled or moved.
        self._outbox.append((when, self.name, encode(payload), size))

    def deliver_inbound(self, payload: bytes, size: int) -> None:
        """Decode and deliver a relayed frame up the local stack
        (stats included, direction indices as on the unsharded link)."""
        if not self._up:
            return
        self.frames_delivered[1 - self.local_index] += 1
        self.bytes_delivered[1 - self.local_index] += size
        self.ends[self.local_index].deliver(decode(payload), size)


class ShardEngine:
    """One region's :class:`~repro.sim.network.Network`, runnable in
    conservative-lookahead rounds.

    Built entirely from pure data (:class:`RegionSpec` + a workload
    dict), so the same constructor runs in the coordinator process and
    in a ``spawn``-ed worker with identical results.
    """

    def __init__(self, region: RegionSpec, workload: Dict[str, Any],
                 seed: int = 0) -> None:
        self.region = region
        self.seed = seed
        self.network = Network(seed=seed)
        self.outbox: List[BoundaryFrame] = []
        # interior links are built from their rows as the unsharded
        # network builds them; the RNG streams are named by link, so the
        # draws match the unsharded build draw for draw
        build_plant(self.network, region.nodes, region.links)
        self._halves: Dict[str, BoundaryHalf] = {}
        for port in region.boundary:
            self._attach_boundary(port)
        self.workload = attach_workload(self.network, workload,
                                        local_nodes=region.nodes)

    def _attach_boundary(self, port: BoundaryPort) -> None:
        link = port.link
        local_index = 0 if port.local_node == link.a else 1
        half = BoundaryHalf(
            self.network.engine, link.name, self.outbox,
            local_index=local_index,
            capacity_bps=link.capacity_bps, delay=link.delay,
            queue_limit=link.queue_limit,
            rng=self.network.streams.stream(f"link:{link.name}"),
            tracer=self.network.tracer)
        if local_index == 0:
            self.network.attach_link(half, port.local_node, None)
        else:
            self.network.attach_link(half, None, port.local_node)
        self._halves[link.name] = half

    # ------------------------------------------------------------------
    @property
    def clock(self) -> float:
        """The region engine's simulated time."""
        return self.network.engine.now

    def next_event_time(self) -> Optional[float]:
        """Earliest pending local event (None when drained)."""
        return self.network.engine.next_event_time()

    def inject(self, frames: List[BoundaryFrame]) -> None:
        """Schedule relayed boundary frames for delivery at their
        recorded arrival times (never in this engine's past — the
        lookahead invariant)."""
        engine = self.network.engine
        for arrival, link_name, payload, size in frames:
            half = self._halves[link_name]
            engine.call_at(arrival, half.deliver_inbound, payload, size,
                           label=half._rx_label)

    def run_to(self, horizon: Optional[float]) -> List[BoundaryFrame]:
        """Run the region engine up to ``horizon`` (to quiescence when
        None) and drain the boundary outbox."""
        self.network.run(until=horizon)
        out, self.outbox[:] = list(self.outbox), []
        return out

    # ------------------------------------------------------------------
    def finish(self, want_rows: bool, want_traces: bool
               ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]],
                          Dict[str, Any], str]:
        """The run's results, as one finish reply carries them:
        ``(delivery rows, node stat rows, summary, trace text)``.

        Delivery rows are workload-defined and always carry
        ``node``/``origin``/``seq`` merge keys.  ``want_rows=False`` /
        ``want_traces=False`` skip the rows and the trace (empty in the
        reply) — a scale run's trace is megabytes of delivery lines
        nobody will pin.  The trace is rendered once: the summary's
        ``trace_sha256`` hashes the very text returned.
        """
        workload = self.workload
        rows = workload.delivery_rows() if want_rows else []
        stats = workload.node_stat_rows() if want_rows else []
        summary = shard_summary(self.region.region, len(self.region.nodes),
                                self.network, workload)
        trace = ""
        if want_traces:
            trace = self.trace_text()
            summary["trace_sha256"] = hashlib.sha256(
                trace.encode()).hexdigest()
        return rows, stats, summary, trace

    def trace_text(self) -> str:
        """The canonical byte-stable trace of this shard's run.

        Same discipline as the scenario runner's trace: counters in
        sorted order, workload observables one line each, ``repr``
        timestamps.  Two runs of the same plan/workload/seed — in
        process, forked, or spawned — must produce identical bytes;
        ``tests/test_trace_golden.py`` pins SHA-256s of these.
        """
        lines = [f"shard={self.region.region} seed={self.seed} "
                 f"nodes={len(self.region.nodes)}"]
        for name, value in self.network.tracer.counters().items():
            lines.append(f"counter {name}={value}")
        lines.extend(self.workload.trace_lines())
        # the *causal* clock (time of the last executed event), not the
        # parked horizon: where a grant parks an engine depends on the
        # partition (a region that sat rounds out lags), is causally
        # irrelevant, and must not reach the fingerprint
        lines.append(f"clock={self.network.engine.last_event_time!r} "
                     f"events={self.network.engine.events_processed}")
        return "\n".join(lines) + "\n"
