"""Partition a network spec into per-region sub-networks.

The shard subsystem cuts one simulated network into regions that run on
independent engines (usually in independent processes).  Everything here
is **pure data** — the same convention as :mod:`repro.sweeps`: a spec
crosses a ``spawn`` process boundary unchanged, and a plan is
serializable, diffable, and replayable.

* :class:`NetworkSpec` — nodes plus :class:`LinkSpec` rows, capturable
  from a live :class:`~repro.sim.network.Network` or built directly.
* :class:`RegionPlan` — a node→region assignment applied to a spec:
  per-region :class:`RegionSpec` sub-networks, the boundary-link table,
  and the per-region conservative lookahead (the minimum propagation
  delay over that region's boundary links).

The lookahead rule is what makes sharded execution *exact* rather than
approximate: a frame that crosses a boundary link is sent at some time
``t`` at or after the earliest activity anywhere in the plant (the
round's ``floor``), and arrives ``delay`` later — so a region that only
advances to ``floor`` plus the minimum delay over its own boundary
links (:attr:`RegionSpec.lookahead`) can never be surprised by a frame
from its past.  A zero-delay boundary link would make every horizon
degenerate, so :class:`RegionPlan` rejects it at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..sim.link import LinkConditions, NoLoss, UniformLoss
from ..sim.network import Network


class ShardPlanError(ValueError):
    """A spec or assignment that cannot be sharded soundly."""


@dataclass(frozen=True)
class LinkSpec:
    """One link of a network spec (pure data, picklable)."""

    a: str
    b: str
    name: str
    capacity_bps: float = 1e8
    delay: float = 0.001
    queue_limit: int = 256
    loss: Optional[float] = None    # uniform per-frame drop probability
    #: :meth:`~repro.sim.link.LinkConditions.from_dict` grammar spec for
    #: condition models (jitter/shaper/corruption/reorder), or None.  A
    #: plain dict keeps the spec pure data; the models themselves are
    #: re-instantiated fresh at :meth:`NetworkSpec.build` time, and
    #: their RNG streams are named by link, so a conditioned *interior*
    #: link behaves bit-identically sharded and unsharded.
    conditions: Optional[Dict] = None


@dataclass(frozen=True)
class NetworkSpec:
    """A whole simulated network as data: node names plus link rows."""

    nodes: Tuple[str, ...]
    links: Tuple[LinkSpec, ...]

    def validate(self) -> None:
        """Reject duplicate names and links to unknown nodes."""
        seen = set()
        for node in self.nodes:
            if node in seen:
                raise ShardPlanError(f"duplicate node name {node!r}")
            seen.add(node)
        names = set()
        for link in self.links:
            if link.name in names:
                raise ShardPlanError(f"duplicate link name {link.name!r}")
            names.add(link.name)
            for end in (link.a, link.b):
                if end not in seen:
                    raise ShardPlanError(
                        f"link {link.name!r} references unknown node {end!r}")

    @classmethod
    def from_network(cls, network: Network) -> "NetworkSpec":
        """Capture a live network's topology as pure data.

        Only plain :class:`~repro.sim.link.Link` parameters survive the
        capture; loss models other than :class:`NoLoss` /
        :class:`UniformLoss` have state that cannot be expressed as a
        scalar and are rejected.
        """
        links = []
        for name, link in network.links.items():
            a, b = network.endpoints_of(link)
            if isinstance(link.loss, NoLoss):
                loss: Optional[float] = None
            elif isinstance(link.loss, UniformLoss):
                loss = link.loss.probability
            else:
                raise ShardPlanError(
                    f"link {name!r}: loss model "
                    f"{type(link.loss).__name__} is not spec-capturable")
            if link.conditions is not None:
                # the models themselves carry live strategy state (token
                # buckets, parked frames), but their construction
                # parameters round-trip through the from_dict grammar —
                # capture those and rebuild fresh models at build time
                conditions: Optional[Dict] = link.conditions.to_dict()
            else:
                conditions = None
            links.append(LinkSpec(a=a, b=b, name=name,
                                  capacity_bps=link.capacity_bps,
                                  delay=link.delay,
                                  queue_limit=link.queue_limit, loss=loss,
                                  conditions=conditions))
        return cls(nodes=tuple(network.nodes), links=tuple(links))

    def build(self, seed: int = 0) -> Network:
        """Instantiate the spec as one (unsharded) live network."""
        network = Network(seed=seed)
        for node in self.nodes:
            network.add_node(node)
        for link in self.links:
            network.connect(
                link.a, link.b, name=link.name,
                capacity_bps=link.capacity_bps, delay=link.delay,
                queue_limit=link.queue_limit,
                loss=None if link.loss is None else UniformLoss(link.loss),
                conditions=None if link.conditions is None
                else LinkConditions.from_dict(link.conditions))
        return network


@dataclass(frozen=True)
class BoundaryPort:
    """A region's view of one boundary link: the cut end it owns."""

    link: LinkSpec
    local_node: str
    remote_node: str
    remote_region: int


@dataclass(frozen=True)
class RegionSpec:
    """One region's sub-network: local nodes, internal links, and the
    boundary ports where frames leave for (and arrive from) other
    regions.  Pure data — this is exactly what a shard worker process
    receives."""

    region: int
    nodes: Tuple[str, ...]
    links: Tuple[LinkSpec, ...]
    boundary: Tuple[BoundaryPort, ...] = field(default_factory=tuple)

    @property
    def lookahead(self) -> float:
        """Conservative lookahead: the minimum propagation delay over
        this region's boundary links (``inf`` when it has none — such a
        region can run to completion in a single round)."""
        if not self.boundary:
            return math.inf
        return min(port.link.delay for port in self.boundary)


class RegionPlan:
    """A validated partition of a :class:`NetworkSpec` into regions.

    Parameters
    ----------
    spec:
        The whole network.
    assignment:
        node name → region id.  Region ids may be any integers; they are
        normalized to ``0..k-1`` in sorted order.
    """

    def __init__(self, spec: NetworkSpec,
                 assignment: Mapping[str, int]) -> None:
        spec.validate()
        missing = [node for node in spec.nodes if node not in assignment]
        if missing:
            raise ShardPlanError(
                f"assignment misses {len(missing)} node(s): "
                f"{', '.join(missing[:5])}")
        self.spec = spec
        raw_ids = sorted({assignment[node] for node in spec.nodes})
        normal = {raw: index for index, raw in enumerate(raw_ids)}
        self.assignment: Dict[str, int] = {
            node: normal[assignment[node]] for node in spec.nodes}

        region_nodes: List[List[str]] = [[] for _ in raw_ids]
        for node in spec.nodes:
            region_nodes[self.assignment[node]].append(node)
        region_links: List[List[LinkSpec]] = [[] for _ in raw_ids]
        region_ports: List[List[BoundaryPort]] = [[] for _ in raw_ids]
        boundary: List[LinkSpec] = []
        for link in spec.links:
            ra, rb = self.assignment[link.a], self.assignment[link.b]
            if ra == rb:
                region_links[ra].append(link)
                continue
            if link.delay <= 0.0:
                raise ShardPlanError(
                    f"boundary link {link.name!r} has zero propagation "
                    f"delay: the conservative lookahead would be zero and "
                    f"no region could ever advance")
            if link.loss is not None:
                raise ShardPlanError(
                    f"boundary link {link.name!r} has a loss model: loss "
                    f"draws would split across two RNG streams and "
                    f"diverge from the unsharded run")
            if link.conditions is not None:
                raise ShardPlanError(
                    f"boundary link {link.name!r} carries link conditions "
                    f"({', '.join(sorted(link.conditions))}): condition "
                    f"models hold live per-link state (token buckets, "
                    f"held-back frames, RNG draws) that cannot be split "
                    f"across a region cut — assign both endpoints to one "
                    f"region or strip the conditions from the cut link")
            boundary.append(link)
            region_ports[ra].append(BoundaryPort(
                link=link, local_node=link.a, remote_node=link.b,
                remote_region=rb))
            region_ports[rb].append(BoundaryPort(
                link=link, local_node=link.b, remote_node=link.a,
                remote_region=ra))
        self.boundary: Tuple[LinkSpec, ...] = tuple(boundary)
        self.regions: Tuple[RegionSpec, ...] = tuple(
            RegionSpec(region=index, nodes=tuple(region_nodes[index]),
                       links=tuple(region_links[index]),
                       boundary=tuple(region_ports[index]))
            for index in range(len(raw_ids)))
        # link name → (region of end a, region of end b): the frame
        # relay's routing table
        self.boundary_regions: Dict[str, Tuple[int, int]] = {
            link.name: (self.assignment[link.a], self.assignment[link.b])
            for link in boundary}

    @property
    def lookahead(self) -> float:
        """The global round step: minimum lookahead over all regions
        (``inf`` for a plan with no boundary links at all)."""
        return min((region.lookahead for region in self.regions),
                   default=math.inf)

    def region_of(self, node: str) -> int:
        """Region id a node was assigned to."""
        return self.assignment[node]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<RegionPlan regions={len(self.regions)} "
                f"boundary={len(self.boundary)} lookahead={self.lookahead}>")


def assignment_by_prefix(spec: NetworkSpec,
                         prefixes: Sequence[Tuple[str, int]],
                         default: int = 0) -> Dict[str, int]:
    """Build an assignment from (prefix, region) rules, first match wins.

    Convenience for the topology families whose node names encode their
    region (``h3_7``, ``border3``...); anything unmatched lands in
    ``default``.
    """
    assignment = {}
    for node in spec.nodes:
        for prefix, region in prefixes:
            if node.startswith(prefix):
                assignment[node] = region
                break
        else:
            assignment[node] = default
    return assignment
