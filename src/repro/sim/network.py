"""Topology construction for experiments.

:class:`Network` owns the engine, tracer, RNG streams, nodes, and links of
one simulation, and offers builders for the topology families used across
the benchmark suite: chains, stars, trees, grids, rings of stars, and
connected random graphs (a random spanning tree plus extra edges).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from .engine import Engine
from .link import Link, LinkConditions, LossModel
from .node import Node
from .rng import RandomStreams
from .trace import Tracer


class Network:
    """One simulated network: engine + tracer + nodes + links."""

    def __init__(self, seed: int = 0) -> None:
        self.engine = Engine()
        self.tracer = Tracer()
        self.streams = RandomStreams(seed)
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[str, Link] = {}
        self._link_seq = itertools.count()
        # link-end → owning node name, maintained by connect(); spares
        # endpoints_of() the O(nodes × interfaces) scan at scale
        self._end_owner: Dict[int, str] = {}
        self.tracer.read_from("link.delivered", self._frames_delivered)

    # ------------------------------------------------------------------
    def add_node(self, name: str) -> Node:
        """Create a node; names must be unique within the network."""
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        node = Node(self.engine, name)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        """Look up a node by name (KeyError if absent)."""
        return self.nodes[name]

    def connect(self, a: str, b: str, capacity_bps: float = 1e8,
                delay: float = 0.001, loss: Optional[LossModel] = None,
                queue_limit: int = 256, name: Optional[str] = None,
                conditions: Optional[LinkConditions] = None) -> Link:
        """Create a link between nodes ``a`` and ``b`` and plug it in.

        ``conditions`` is an optional
        :class:`~repro.sim.link.LinkConditions` impairment bundle
        (jitter/shaping/corruption/reordering).
        """
        # validate endpoints before any side effect (stream creation)
        self.node(a)
        self.node(b)
        if name is None:
            name = f"{a}--{b}#{next(self._link_seq)}"
        if name in self.links:
            raise ValueError(f"duplicate link name {name!r}")
        # The per-link loss PRNG is derived by name, so deferring its
        # construction to the first loss draw changes nothing — and a
        # lossless link never pays the ~2.5 KB Mersenne state at all.
        # A suffix names an auxiliary per-link stream ("jitter",
        # "corrupt", "reorder"): condition models draw from their own
        # streams, so the bare loss stream — and every other link's —
        # is never perturbed by installing a condition.
        def rng_factory(suffix: str = "",
                        _base: str = f"link:{name}") -> "random.Random":
            return self.streams.stream(f"{_base}:{suffix}" if suffix
                                       else _base)
        if conditions is not None:
            # one bundle may parameterize many links (builder families):
            # give each link its own copy of any stateful model
            conditions = conditions.fresh()
        link = Link(self.engine, name, capacity_bps=capacity_bps, delay=delay,
                    loss=loss, queue_limit=queue_limit,
                    rng_factory=rng_factory,
                    tracer=self.tracer, conditions=conditions)
        return self.attach_link(link, a, b)

    def attach_link(self, link: Link, a: Optional[str],
                    b: Optional[str] = None) -> Link:
        """Register an externally constructed link (e.g. a custom
        :class:`Link` subclass): end 0 attaches to node ``a``, end 1 to
        ``b``; either may be ``None`` (but not both).  :meth:`connect`
        delegates here, so link registration bookkeeping lives in one
        place.

        The shard subsystem uses the one-sided forms for boundary
        half-links whose far end lives in another region's simulation —
        ``a=None`` when the local node owns the original link's *b*
        side, so frame direction indices (and anything keyed on them,
        like shim flow-id parity) match the unsharded link exactly.  The
        ghost end belongs to no local node: :meth:`endpoints_of` on such
        a link raises KeyError.
        """
        if link.name in self.links:
            raise ValueError(f"duplicate link name {link.name!r}")
        if a is None and b is None:
            raise ValueError(f"link {link.name!r}: at least one end must "
                             f"attach to a node")
        self.links[link.name] = link
        for index, owner in ((0, a), (1, b)):
            if owner is not None:
                self.nodes[owner].add_interface(link.ends[index])
                self._end_owner[id(link.ends[index])] = owner
        return link

    def endpoints_of(self, link: Link) -> Tuple[str, str]:
        """Node names at the two ends of ``link``."""
        return (self._owner_of(link.ends[0]), self._owner_of(link.ends[1]))

    def link_between(self, a: str, b: str) -> Link:
        """First link joining ``a`` and ``b`` (either order).

        The canonical ``a--b#seq`` name is tried first (cheap); links with
        custom names are found by their actual attachment points.
        """
        for name, link in self.links.items():
            base = name.split("#")[0]
            if base in (f"{a}--{b}", f"{b}--{a}"):
                return link
        for link in self.links.values():
            if set(self.endpoints_of(link)) == {a, b}:
                return link
        raise KeyError(f"no link between {a!r} and {b!r}")

    def _frames_delivered(self) -> int:
        return sum(sum(link.frames_delivered)
                   for link in self.links.values())

    def run(self, until: Optional[float] = None) -> float:
        """Run the underlying engine."""
        return self.engine.run(until=until)

    # ------------------------------------------------------------------
    # Topology builders.  Each returns the list of node names created.
    # ------------------------------------------------------------------
    def build_chain(self, count: int, prefix: str = "n",
                    **link_kwargs: object) -> List[str]:
        """n0 - n1 - ... - n(count-1)."""
        if count < 1:
            raise ValueError("chain needs at least one node")
        names = [f"{prefix}{i}" for i in range(count)]
        for name in names:
            self.add_node(name)
        for left, right in zip(names, names[1:]):
            self.connect(left, right, **link_kwargs)
        return names

    def build_star(self, leaves: int, hub: str = "hub", prefix: str = "leaf",
                   **link_kwargs: object) -> Tuple[str, List[str]]:
        """A hub with ``leaves`` spokes; returns (hub, leaf names)."""
        self.add_node(hub)
        names = []
        for i in range(leaves):
            name = f"{prefix}{i}"
            self.add_node(name)
            self.connect(hub, name, **link_kwargs)
            names.append(name)
        return hub, names

    def build_tree(self, depth: int, arity: int, prefix: str = "t",
                   **link_kwargs: object) -> List[str]:
        """Complete ``arity``-ary tree of the given depth (root at depth 0).

        Node names encode their tree path: ``t``, ``t.0``, ``t.0.1`` ...
        """
        if depth < 0 or arity < 1:
            raise ValueError("depth must be >=0 and arity >=1")
        root = prefix
        self.add_node(root)
        names = [root]
        frontier = [root]
        for _ in range(depth):
            next_frontier = []
            for parent in frontier:
                for child_index in range(arity):
                    child = f"{parent}.{child_index}"
                    self.add_node(child)
                    self.connect(parent, child, **link_kwargs)
                    names.append(child)
                    next_frontier.append(child)
            frontier = next_frontier
        return names

    def build_grid(self, rows: int, cols: int, prefix: str = "g",
                   **link_kwargs: object) -> List[List[str]]:
        """rows × cols grid; returns the matrix of node names."""
        if rows < 1 or cols < 1:
            raise ValueError("grid needs positive dimensions")
        matrix = [[f"{prefix}{r}_{c}" for c in range(cols)] for r in range(rows)]
        for row in matrix:
            for name in row:
                self.add_node(name)
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    self.connect(matrix[r][c], matrix[r][c + 1], **link_kwargs)
                if r + 1 < rows:
                    self.connect(matrix[r][c], matrix[r + 1][c], **link_kwargs)
        return matrix

    def build_ring_of_stars(self, regions: int, hosts_per_region: int,
                            prefix: str = "s",
                            **link_kwargs: object) -> List[str]:
        """``regions`` hubs joined in a ring, each with its own star of
        ``hosts_per_region`` leaves — the E6 scale-tier plant shape
        (regional access stars over a redundant backbone ring).

        Returns hubs first (``s0..s{k-1}``), then leaves
        (``s{r}_h{i}``).  A ring of one region degenerates to a star; two
        regions get a single backbone link (no parallel ring edge).
        """
        if regions < 1 or hosts_per_region < 0:
            raise ValueError("ring_of_stars needs >=1 region and >=0 hosts")
        hubs = [f"{prefix}{r}" for r in range(regions)]
        for hub in hubs:
            self.add_node(hub)
        if regions == 2:
            self.connect(hubs[0], hubs[1], **link_kwargs)
        elif regions > 2:
            for index, hub in enumerate(hubs):
                self.connect(hub, hubs[(index + 1) % regions], **link_kwargs)
        leaves = []
        for r, hub in enumerate(hubs):
            for i in range(hosts_per_region):
                leaf = f"{prefix}{r}_h{i}"
                self.add_node(leaf)
                self.connect(hub, leaf, **link_kwargs)
                leaves.append(leaf)
        return hubs + leaves

    def build_random(self, count: int, edge_factor: float = 2.0,
                     prefix: str = "r", **link_kwargs: object) -> List[str]:
        """Connected random graph with ~``edge_factor * count`` edges.

        Built from a random spanning tree plus extra random edges — a cheap
        stand-in for Waxman/ISP graphs that guarantees connectivity.
        """
        if count < 1:
            raise ValueError("need at least one node")
        rng = self.streams.stream("topology")
        names = [f"{prefix}{i}" for i in range(count)]
        for name in names:
            self.add_node(name)
        # random spanning tree (random attachment)
        edges = set()
        for i in range(1, count):
            j = rng.randrange(i)
            edges.add((min(i, j), max(i, j)))
        target = max(count - 1, int(edge_factor * count))
        attempts = 0
        while len(edges) < target and attempts < 50 * count:
            attempts += 1
            i, j = rng.randrange(count), rng.randrange(count)
            if i != j:
                edges.add((min(i, j), max(i, j)))
        for i, j in sorted(edges):
            self.connect(names[i], names[j], **link_kwargs)
        return names

    def _owner_of(self, end) -> str:
        owner = self._end_owner.get(id(end))
        if owner is not None:
            return owner
        # fallback for ends attached outside connect()/attach_link()
        for node in self.nodes.values():
            for interface in node.interfaces():
                if interface.end is end:
                    return node.name
        raise KeyError("link end not attached to any node")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Network nodes={len(self.nodes)} links={len(self.links)}>"
