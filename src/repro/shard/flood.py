"""Frame-level flooding workload for sharded runs.

The expensive part of the flat E6 configuration is not Dijkstra — PR 2's
lazy SPF removed most of that — it is the *flooding fan-out*: every
link-state announcement traverses every link of a 1,000-system plant.
:class:`FloodNode` models exactly that data path at the sim layer: each
node originates sequence-numbered announcements and refloods first
copies out of every other interface, deduplicating by ``(origin, seq)``
the way the LSDB does.  Payloads are plain ``(origin, seq)`` tuples, so
frames cross shard process boundaries through the wire codec unchanged.

The workload itself is pure data (a dict of announcement times), so one
description drives the unsharded reference run, every in-process shard,
and every shard worker process identically — which is what makes the
sharded-vs-unsharded delivery equivalence testable at all.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Tuple

from ..sim.network import Network

FLOOD_KIND = "flood"

#: default announcement payload size (bytes on the wire)
DEFAULT_SIZE = 64

#: default stagger between consecutive origins' announcements.  Chosen so
#: announcement offsets (multiples of 5e-4) can never coincide with sums
#: of the standard plant's hop delays (multiples of 1e-3/2e-3 plus
#: 64-byte serialization quanta) — no two frames contend for a queue at
#: exactly the same instant, so delivery times are tie-free and the
#: sharded run reproduces the unsharded one to the bit.
DEFAULT_SPACING = 5e-4


def flood_workload(announcements: List[Tuple[str, float]],
                   size_bytes: int = DEFAULT_SIZE) -> Dict[str, Any]:
    """The pure-data workload description carried to every shard."""
    return {
        "kind": FLOOD_KIND,
        "size_bytes": int(size_bytes),
        "announcements": [[str(node), float(at)] for node, at in announcements],
    }


def all_nodes_announce(nodes: Tuple[str, ...],
                       spacing: float = DEFAULT_SPACING,
                       size_bytes: int = DEFAULT_SIZE) -> Dict[str, Any]:
    """Every node originates one announcement, staggered in node order —
    the initial-LSA storm of a freshly built flat DIF."""
    return flood_workload(
        [(node, index * spacing) for index, node in enumerate(nodes)],
        size_bytes=size_bytes)


def sparse_announce(nodes: Tuple[str, ...], origins: int,
                    spacing: float = DEFAULT_SPACING,
                    size_bytes: int = DEFAULT_SIZE) -> Dict[str, Any]:
    """``origins`` evenly spaced nodes originate one announcement each.

    The 100k-system tier's workload: a full ``all_nodes_announce`` storm
    is quadratic (every announcement traverses every link — 10^10
    deliveries at that scale), while real plants after the initial storm
    see a sparse trickle of re-originations.  Picking every
    ``len(nodes)//origins``-th node keeps the origins spread across
    regions, so every boundary link still carries traffic.
    """
    if origins <= 0:
        raise ValueError(f"origins must be positive, got {origins}")
    origins = min(origins, len(nodes))
    stride = len(nodes) // origins
    chosen = [nodes[i * stride] for i in range(origins)]
    return flood_workload(
        [(node, index * spacing) for index, node in enumerate(chosen)],
        size_bytes=size_bytes)


class FloodNode:
    """Per-origin sequence-numbered flooding on one node, LSA-style.

    Every node of one :func:`attach_flood` call shares ``keys`` (payload
    → small int, one per announcement of the workload) and ``payloads``
    (the reverse), so a node's state is flat: one ``bytearray`` of seen
    flags indexed by key, and its first deliveries as an ``array`` of
    times beside an ``array`` of keys.
    """

    __slots__ = ("node", "name", "_engine", "_keys", "_payloads", "_seen",
                 "_next_seq", "_times", "_delivered", "announced",
                 "duplicates", "forwarded", "_interfaces")

    def __init__(self, node, keys: Dict[Tuple[str, int], int],
                 payloads: List[Tuple[str, int]]) -> None:
        self.node = node
        self.name = node.name
        self._engine = node.engine
        self._keys = keys
        self._payloads = payloads
        self._seen = bytearray(len(keys))
        self._next_seq = 0
        self._times = array("d")
        self._delivered = array("I")
        self.announced = 0
        self.duplicates = 0
        self.forwarded = 0
        self._interfaces = list(node.interfaces())
        for interface in self._interfaces:
            end = interface.end
            end.attach(lambda payload, size, _end=end:
                       self._receive(_end, payload, size))

    @property
    def deliveries(self) -> List[Tuple[float, str, int]]:
        """(time, origin, seq) per first delivery, in delivery order."""
        payloads = self._payloads
        return [(time,) + payloads[key]
                for time, key in zip(self._times, self._delivered)]

    @property
    def received(self) -> int:
        """Number of first deliveries."""
        return len(self._times)

    def announce(self, size_bytes: int = DEFAULT_SIZE) -> None:
        """Originate one announcement and flood it on every interface."""
        key = self._keys[self.name, self._next_seq]
        self._next_seq += 1
        payload = self._payloads[key]
        self._seen[key] = 1
        self.announced += 1
        for interface in self._interfaces:
            interface.end.send(payload, size_bytes)
            self.forwarded += 1

    def _receive(self, from_end, payload, size: int) -> None:
        key = self._keys[payload]
        if self._seen[key]:
            self.duplicates += 1
            return
        self._seen[key] = 1
        self._times.append(self._engine.now)
        self._delivered.append(key)
        for interface in self._interfaces:
            if interface.end is not from_end:
                interface.end.send(payload, size)
                self.forwarded += 1

    def stats(self) -> Dict[str, Any]:
        """Order-insensitive per-node result row."""
        return {
            "node": self.name,
            "announced": self.announced,
            "received": self.received,
            "duplicates": self.duplicates,
            "forwarded": self.forwarded,
        }


def attach_flood(network: Network, workload: Dict[str, Any],
                 local_nodes: Optional[Tuple[str, ...]] = None
                 ) -> Dict[str, FloodNode]:
    """Attach a :class:`FloodNode` to every (local) node and schedule the
    workload's announcements whose origin lives here.

    Interfaces must all be plugged in before this is called (boundary
    half-links included) — a flood node snapshots its interface list.
    The network's tracer reads ``flood.announced`` / ``flood.delivered``
    / ``flood.duplicate`` from the nodes' own counts.
    """
    if workload.get("kind") != FLOOD_KIND:
        raise ValueError(f"unknown workload kind {workload.get('kind')!r}")
    size = int(workload.get("size_bytes", DEFAULT_SIZE))
    names = tuple(local_nodes) if local_nodes is not None \
        else tuple(network.nodes)
    # one key per announcement in the whole workload, local or not: a
    # remote origin's payload arrives here too
    payloads: List[Tuple[str, int]] = []
    next_seq: Dict[str, int] = {}
    for node, _at in workload["announcements"]:
        seq = next_seq.get(node, 0)
        next_seq[node] = seq + 1
        payloads.append((node, seq))
    keys = {payload: key for key, payload in enumerate(payloads)}
    floods = {name: FloodNode(network.nodes[name], keys, payloads)
              for name in names}
    nodes = tuple(floods.values())
    tracer = network.tracer
    tracer.read_from("flood.announced",
                     lambda: sum(f.announced for f in nodes))
    tracer.read_from("flood.delivered",
                     lambda: sum(f.received for f in nodes))
    tracer.read_from("flood.duplicate",
                     lambda: sum(f.duplicates for f in nodes))
    for node, at in workload["announcements"]:
        flood = floods.get(node)
        if flood is not None:
            network.engine.call_at(float(at), flood.announce, size,
                                   label="flood.announce")
    return floods


class FloodRun:
    """One engine's attached flood workload behind the common workload
    interface (:func:`repro.shard.engine.attach_workload`): delivery
    rows, per-node stats, summary fields, and the trace lines — all
    byte-identical to the formats pinned before workloads were
    pluggable."""

    __slots__ = ("floods",)

    def __init__(self, floods: Dict[str, FloodNode]) -> None:
        self.floods = floods

    def delivery_rows(self) -> List[Dict[str, Any]]:
        """One row per first delivery, sorted by (node, origin, seq),
        its time included: on a tie-free workload the sharded run
        reproduces the unsharded delivery *times* bit for bit."""
        rows = []
        floods = self.floods
        for name in sorted(floods):
            for time, origin, seq in sorted(
                    floods[name].deliveries,
                    key=lambda d: (d[1], d[2], d[0])):
                rows.append({"node": name, "origin": origin, "seq": seq,
                             "time": time})
        return rows

    def node_stat_rows(self) -> List[Dict[str, Any]]:
        """Per-node stats rows sorted by node name."""
        return [self.floods[name].stats() for name in sorted(self.floods)]

    def summary_extra(self) -> Dict[str, Any]:
        return {
            "deliveries": sum(f.received for f in self.floods.values()),
            "duplicates": sum(f.duplicates for f in self.floods.values()),
        }

    def trace_lines(self) -> List[str]:
        lines = []
        for row in self.delivery_rows():
            lines.append(f"delivery {row['node']} {row['origin']} "
                         f"{row['seq']} {row['time']!r}")
        for stats in self.node_stat_rows():
            lines.append("node {node} announced={announced} "
                         "received={received} duplicates={duplicates} "
                         "forwarded={forwarded}".format(**stats))
        return lines
