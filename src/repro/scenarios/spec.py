"""Declarative scenario specifications.

A :class:`Scenario` is pure data: a topology family, a DIF layer stack, a
workload mix, and a timed fault schedule.  The same spec drives both the
recursive-IPC stack and the IP baseline (see
:mod:`repro.scenarios.runner`), so scenario coverage is a matter of
*composing* specs — by hand, from the canned registry, or sampled by
:mod:`repro.scenarios.generate` — instead of writing a bespoke experiment
script per case.

Specs round-trip through plain dicts (:meth:`Scenario.to_dict` /
:meth:`Scenario.from_dict`) so they can live in JSON files and be run from
the CLI (``python -m repro scenarios run <spec>``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..sim.plant import LinkSpec

TOPOLOGY_FAMILIES = ("chain", "star", "tree", "grid", "random",
                     "ring_of_stars", "explicit")
WORKLOAD_KINDS = ("echo", "transfer", "stream")
FAULT_KINDS = ("link-flap", "link-degrade", "node-crash", "partition",
               "congestion", "jitter-storm", "bandwidth-squeeze",
               "corruption-storm", "reorder-burst")

#: lower-facility reference understood by layer adjacencies:
#: ``"shim"`` — the shim over the (first) physical link between the pair;
#: ``"link:<name>"`` — the shim over the named physical link;
#: anything else — the name of another (lower) layer in the same scenario.
SHIM = "shim"


class SpecError(ValueError):
    """Raised for malformed scenario specifications."""


@dataclass
class TopologySpec:
    """A topology family plus its size/link parameters.

    ``family`` selects one of the topology families of
    :mod:`repro.sim.network`; ``params`` are its size arguments
    (``count``, ``rows``/``cols``, ``depth``/``arity``, ``leaves``,
    ``regions``/``hosts``, ``edge_factor``).  ``link`` gives the
    :class:`LinkSpec` fields every link of a builder family gets.  The
    ``explicit`` family instead lists ``nodes`` and ``links`` one by one
    (parallel links and per-link media included — multihoming needs them).
    """

    family: str = "chain"
    params: Dict[str, Any] = field(default_factory=dict)
    link: Dict[str, Any] = field(default_factory=dict)
    nodes: List[str] = field(default_factory=list)
    links: List[LinkSpec] = field(default_factory=list)

    def validate(self) -> None:
        if self.family not in TOPOLOGY_FAMILIES:
            raise SpecError(f"unknown topology family {self.family!r}")
        if self.family == "explicit":
            if not self.nodes or not self.links:
                raise SpecError("explicit topology needs nodes and links")
            known = set(self.nodes)
            for link in self.links:
                if link.a not in known or link.b not in known:
                    raise SpecError(f"link {link.a!r}--{link.b!r} references "
                                    f"unknown nodes")


@dataclass
class LayerSpec:
    """One DIF of the scenario's stack.

    ``adjacencies`` are ``(system_a, system_b, lower)`` triples where
    ``lower`` follows the grammar documented at :data:`SHIM`.  ``policies``
    are plain-value :class:`~repro.core.dif.DifPolicies` keyword arguments
    (the JSON-safe subset: floats, ints, strings, dicts thereof).
    """

    name: str
    adjacencies: List[Tuple[str, str, str]] = field(default_factory=list)
    policies: Dict[str, Any] = field(default_factory=dict)
    bootstrap: Optional[str] = None

    def members(self) -> List[str]:
        ordered: List[str] = []
        for a, b, _lower in self.adjacencies:
            for name in (a, b):
                if name not in ordered:
                    ordered.append(name)
        return ordered


@dataclass
class WorkloadSpec:
    """One application pair riding the top layer (or ``dif``).

    Kinds: ``echo`` (periodic request/reply, the outage probe),
    ``transfer`` (bulk reliable push, the goodput probe), ``stream``
    (constant bit rate, the latency probe) — all drawn from
    :mod:`repro.apps`.
    """

    kind: str = "echo"
    client: str = ""
    server: str = ""
    start: float = 1.0
    period: float = 0.05     # echo/stream inter-message period
    count: int = 100         # echo: messages to send
    size: int = 200          # echo/stream message bytes
    bytes: int = 100_000     # transfer: payload volume
    qos: str = "reliable"
    dif: Optional[str] = None   # explicit layer; default: the top layer

    def validate(self, nodes: Sequence[str]) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise SpecError(f"unknown workload kind {self.kind!r}")
        for endpoint in (self.client, self.server):
            if endpoint not in nodes:
                raise SpecError(f"workload endpoint {endpoint!r} not in "
                                f"topology")
        if self.client == self.server:
            raise SpecError("workload endpoints must differ")


@dataclass
class FaultSpec:
    """One timed fault.

    ``target`` is a link name, an ``"a--b"`` node pair, a node name
    (``node-crash``), or a list of node names (``partition`` group).
    Times are relative to the workload epoch (t0 = stack built and
    settled).  ``duration=None`` makes the fault permanent.
    """

    kind: str = "link-flap"
    target: Any = None
    at: float = 2.0
    duration: Optional[float] = 1.0
    # link-flap
    flaps: int = 1
    period: float = 2.0
    # link-degrade
    peak_loss: float = 0.5
    delay_factor: float = 4.0
    steps: int = 4
    # congestion
    capacity_factor: float = 8.0
    # jitter-storm
    jitter_s: float = 0.005
    jitter_model: str = "uniform"
    preserve_order: bool = True
    # bandwidth-squeeze
    rate_bps: float = 1e6
    burst_bytes: Optional[float] = None
    # corruption-storm
    corrupt_prob: float = 0.1
    max_flips: int = 3
    # reorder-burst
    reorder_prob: float = 0.2
    reorder_depth: int = 3
    reorder_hold: float = 0.05

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise SpecError(f"unknown fault kind {self.kind!r}")
        if self.target is None:
            raise SpecError(f"fault {self.kind} needs a target")
        if self.at < 0:
            raise SpecError("fault time must be non-negative")
        if self.kind == "partition" and not isinstance(self.target,
                                                       (list, tuple)):
            raise SpecError("partition target must be a node group")
        if self.kind == "jitter-storm":
            if self.jitter_s < 0:
                raise SpecError("jitter_s must be non-negative")
            if self.jitter_model not in ("uniform", "normal"):
                raise SpecError(f"unknown jitter model {self.jitter_model!r}")
        if self.kind == "bandwidth-squeeze" and self.rate_bps <= 0:
            raise SpecError("rate_bps must be positive")
        if self.kind == "corruption-storm" and not (
                0.0 <= self.corrupt_prob <= 1.0):
            raise SpecError("corrupt_prob must be in [0,1]")
        if self.kind == "reorder-burst":
            if not 0.0 <= self.reorder_prob <= 1.0:
                raise SpecError("reorder_prob must be in [0,1]")
            if self.reorder_depth < 1:
                raise SpecError("reorder_depth must be >= 1")

    def label(self) -> str:
        target = ("+".join(self.target) if isinstance(self.target,
                                                      (list, tuple))
                  else str(self.target))
        return f"{self.kind}@{self.at:g}:{target}"


@dataclass
class Scenario:
    """The complete declarative description of one simulation run."""

    name: str = "scenario"
    topology: TopologySpec = field(default_factory=TopologySpec)
    layers: List[LayerSpec] = field(default_factory=list)
    dif_depth: int = 1          # used when ``layers`` is empty
    workloads: List[WorkloadSpec] = field(default_factory=list)
    faults: List[FaultSpec] = field(default_factory=list)
    duration: float = 10.0
    settle: float = 0.5         # quiet time between stack-up and epoch
    build_timeout: float = 120.0
    description: str = ""

    def validate(self, nodes: Optional[Sequence[str]] = None) -> None:
        """Structural validation (node-level checks need the built node
        list for builder families, hence the optional argument)."""
        self.topology.validate()
        if not self.workloads:
            raise SpecError("a scenario needs at least one workload")
        if self.duration <= 0:
            raise SpecError("duration must be positive")
        if not self.layers and self.dif_depth < 1:
            raise SpecError("dif_depth must be >= 1")
        for fault in self.faults:
            fault.validate()
        if nodes is not None:
            for workload in self.workloads:
                workload.validate(nodes)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-safe) form of this spec."""
        return asdict(self)

    @classmethod
    def from_dict(cls, value: Dict[str, Any]) -> "Scenario":
        """Rebuild a :class:`Scenario` from :meth:`to_dict` output."""
        value = dict(value)
        topology = value.get("topology") or {}
        if isinstance(topology, dict):
            topology = dict(topology)
            topology["links"] = [LinkSpec(**dict(link)) if isinstance(link, dict)
                                 else link
                                 for link in topology.get("links", [])]
            value["topology"] = TopologySpec(**topology)
        value["layers"] = [
            LayerSpec(**{**dict(layer),
                         "adjacencies": [tuple(adj) for adj in
                                         dict(layer).get("adjacencies", [])]})
            if isinstance(layer, dict) else layer
            for layer in value.get("layers", [])]
        value["workloads"] = [WorkloadSpec(**dict(w)) if isinstance(w, dict)
                              else w for w in value.get("workloads", [])]
        value["faults"] = [FaultSpec(**dict(f)) if isinstance(f, dict) else f
                           for f in value.get("faults", [])]
        return cls(**value)


def auto_layers(links: Sequence[Tuple[str, str, str]],
                depth: int) -> List[LayerSpec]:
    """Derive a full-span layer stack of the given depth.

    ``links`` are ``(a, b, link_name)`` triples — one per physical link,
    so parallel links each contribute their own rank-1 adjacency (extra
    points of attachment, not duplicates).  Layer 1 rides the shim of
    each named link; layer ``k`` repeats the node adjacency graph over
    layer ``k-1`` — the paper's "the same mechanisms recur at every rank"
    made literal.  Lower layers get faster keepalives (narrow scope,
    short feedback loop); each higher layer doubles the interval.
    """
    if depth < 1:
        raise SpecError("dif_depth must be >= 1")
    layers: List[LayerSpec] = []
    for rank in range(1, depth + 1):
        if rank == 1:
            adjacencies = [(a, b, f"link:{name}") for a, b, name in links]
        else:
            seen = set()
            adjacencies = []
            for a, b, _name in links:
                if (a, b) not in seen:   # one (N-1) flow per neighbor pair
                    seen.add((a, b))
                    adjacencies.append((a, b, layers[-1].name))
        keepalive = 0.2 * (2 ** (rank - 1))
        layers.append(LayerSpec(
            name=f"L{rank}" if depth > 1 else "net",
            adjacencies=adjacencies,
            policies={"keepalive_interval": keepalive, "dead_factor": 3,
                      "spf_delay": 0.02, "refresh_interval": None}))
    return layers
