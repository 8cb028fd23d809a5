"""Routing within a DIF (§5.3, Fig 4).

Routing is a management task of the DIF, run *over the graph of its member
IPC processes*: each member floods a link-state advertisement (LSA) listing
its adjacencies (the neighbors it holds (N-1) flows to), every member keeps
the resulting link-state database, and shortest-path next hops feed the
RMT's forwarding function.

Crucially — and this is the paper's two-step model — routing only decides
the **next-hop node address** (step one).  Which (N-1) flow / point of
attachment carries the PDU to that next hop is the RMT path-selection
policy's business (step two).  Multihoming and mobility fall out of keeping
those steps distinct.

LSAs travel as hop-scoped RIEP ``M_WRITE`` messages on the object
``/routing/lsa`` and are re-flooded with sequence-number dedup, so the
**scope of a routing update is bounded by the DIF's scope** — the property
experiments E5/E6 quantify.

Scaling: link-state is the same in every member of a DIF, so it is held once.

* an LSA is **one object per process** (:meth:`Lsa.from_value` hands every
  member that receives the same value dict the same immutable ``Lsa``) —
  a flood costs one decode per origination, not one per member;
* there is no per-member graph and no second index over the LSDB: SPF is
  lazy (hundreds of runs against tens of thousands of LSAs), so Dijkstra
  reads each origin's row from its stored LSA, the member's own from its
  live adjacencies, and applies the two-way check as it walks them;
* an accepted LSA that does not change its origin's advertised neighbor
  set (a pure sequence-number refresh) is stored and re-flooded but does
  **not** mark the SPF dirty: the query past its hold-down skips Dijkstra.

The hold-down is a policy of the routing task, not an event: a change
records a deadline ``spf_delay`` ahead unless one is already set, and
the first table query at or past it recomputes (:meth:`_ensure_table`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple
from weakref import WeakValueDictionary

from ..sim.engine import Engine
from .names import Address
from .riep import M_WRITE, RiepMessage, estimate_value_size

LSA_OBJ = "/routing/lsa"

#: Tie-break: neighbor cost used when none is specified.
DEFAULT_COST = 1.0


class Lsa:
    """One origin's view of its adjacencies; immutable once built, and
    shared by every member of the process that is handed its value."""

    __slots__ = ("origin", "seq", "neighbors", "_value_cache", "_value_size",
                 "__weakref__")

    def __init__(self, origin: Address, seq: int,
                 neighbors: Dict[Address, float]) -> None:
        self.origin = origin
        self.seq = seq
        self.neighbors = dict(neighbors)
        self._value_cache: Optional[dict] = None
        self._value_size: Optional[int] = None

    def to_value(self) -> dict:
        """JSON-like encoding carried in the RIEP message, built once:
        whoever is handed this very dict decodes it back to this object."""
        if self._value_cache is None:
            self._value_cache = {
                "origin": self.origin.parts,
                "seq": self.seq,
                "neighbors": [(addr.parts, cost)
                              for addr, cost in sorted(self.neighbors.items())],
            }
            _DECODED[id(self._value_cache)] = self
        return self._value_cache

    def value_size(self) -> int:
        """RIEP size estimate of :meth:`to_value`, walked once."""
        if self._value_size is None:
            self._value_size = estimate_value_size(self.to_value())
        return self._value_size

    @classmethod
    def from_value(cls, value: dict) -> "Lsa":
        """Decode the RIEP payload — once per value dict per process."""
        lsa = _DECODED.get(id(value))
        if lsa is not None and lsa._value_cache is value:
            return lsa
        lsa = cls.__new__(cls)
        lsa.origin = Address(*value["origin"])
        lsa.seq = int(value["seq"])
        lsa.neighbors = {Address(*parts): float(cost)
                         for parts, cost in value["neighbors"]}
        lsa._value_cache = value
        lsa._value_size = None
        _DECODED[id(value)] = lsa
        return lsa

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Lsa {self.origin} seq={self.seq} nbrs={len(self.neighbors)}>"


#: ``id(value dict) -> Lsa`` for every live LSA.  The LSA keeps its dict
#: alive, so an id cannot be recycled while its entry exists; a dict that
#: crossed a shard cut is a new dict and decodes afresh.
_DECODED: "WeakValueDictionary[int, Lsa]" = WeakValueDictionary()


class LinkStateRouting:
    """The routing task of one IPC process.

    Parameters
    ----------
    engine:
        Simulation engine whose clock the SPF hold-down is read against.
    local_addr_fn:
        Returns this IPCP's current address (None before enrollment).
    flood_fn:
        ``flood_fn(message, exclude_neighbor)`` sends a hop-scoped RIEP
        message to every adjacent member except ``exclude_neighbor``.
    spf_delay:
        Hold-down between an LSDB change and the first table query that
        recomputes (batches floods).
    """

    __slots__ = ("_engine", "_local_addr_fn", "_flood", "_spf_delay",
                 "_lsdb", "_own_seq", "_adjacencies", "_next_hop",
                 "_spf_due", "_dirty",
                 "_spf_source", "lsas_received", "lsas_reflooded",
                 "spf_runs", "spf_skipped")

    def __init__(self, engine: Engine,
                 local_addr_fn: Callable[[], Optional[Address]],
                 flood_fn: Callable[[RiepMessage, Optional[Address]], int],
                 spf_delay: float = 0.02) -> None:
        self._engine = engine
        self._local_addr_fn = local_addr_fn
        self._flood = flood_fn
        self._spf_delay = spf_delay
        self._lsdb: Dict[Address, Lsa] = {}
        self._own_seq = 0
        self._adjacencies: Dict[Address, float] = {}
        self._next_hop: Dict[Address, Address] = {}
        self._dirty = False            # any row change since the last run
        self._spf_due = inf            # hold-down deadline; inf = none set
        self._spf_source: Optional[Address] = None
        # counters for the scalability/mobility experiments
        self.lsas_received = 0
        self.lsas_reflooded = 0
        self.spf_runs = 0
        self.spf_skipped = 0           # hold-down ended, nothing dirty

    # ------------------------------------------------------------------
    # Adjacency management (called by the IPCP's neighbor monitoring)
    # ------------------------------------------------------------------
    def neighbor_up(self, neighbor: Address, cost: float = DEFAULT_COST) -> None:
        """Record a new usable adjacency and advertise it."""
        if self._adjacencies.get(neighbor) == cost:
            return
        self._adjacencies[neighbor] = cost
        self._dirty = True
        self._originate()

    def neighbor_down(self, neighbor: Address) -> None:
        """Withdraw an adjacency (flow lost or member departed)."""
        if neighbor not in self._adjacencies:
            return
        del self._adjacencies[neighbor]
        self._dirty = True
        self._originate()

    def reset(self) -> None:
        """Forget every learned LSA, adjacency, and route (crash).

        ``_own_seq`` deliberately survives: if the member re-enrolls and is
        handed a recycled address, its fresh LSAs must outrank the stale
        ones other members still hold for that address.
        """
        self._lsdb.clear()
        self._adjacencies.clear()
        self._next_hop.clear()
        self._spf_source = None
        self._dirty = True
        self._spf_due = inf

    def _originate(self) -> None:
        local = self._local_addr_fn()
        if local is None:
            return
        self._own_seq += 1
        lsa = Lsa(local, self._own_seq, self._adjacencies)
        self._lsdb[local] = lsa
        message = RiepMessage(M_WRITE, obj=LSA_OBJ, value=lsa.to_value())
        self._flood(message, None)
        self._schedule_spf()

    def refresh(self) -> None:
        """Anti-entropy re-origination (same adjacencies, bumped seq)."""
        if self._adjacencies or self._own_seq:
            self._originate()

    # ------------------------------------------------------------------
    # Flooding
    # ------------------------------------------------------------------
    def handle_lsa(self, message: RiepMessage, from_neighbor: Address) -> None:
        """Process a received ``M_WRITE /routing/lsa`` message."""
        self.lsas_received += 1
        lsa = Lsa.from_value(message.value)
        current = self._lsdb.get(lsa.origin)
        if current is not None and current.seq >= lsa.seq:
            return  # stale or duplicate: flooding stops here
        self._lsdb[lsa.origin] = lsa
        self.lsas_reflooded += 1
        self._flood(message, from_neighbor)
        # a pure seq refresh (identical neighbor set) leaves the SPF
        # clean, so the coming recompute skips Dijkstra; the own row is the
        # live adjacency set, never the stored LSA
        if ((current is None or current.neighbors != lsa.neighbors)
                and lsa.origin != self._local_addr_fn()):
            self._dirty = True
        self._schedule_spf()

    def lsas(self) -> List[Lsa]:
        """The LSDB in origin order; the :class:`Lsa` objects are the
        ones every member of the process shares."""
        return [self._lsdb[origin] for origin in sorted(self._lsdb)]

    def sync_lsdb(self) -> List[dict]:
        """Snapshot of the LSDB for bulk transfer to a newly enrolled member."""
        return [lsa.to_value() for lsa in self.lsas()]

    def sync_lsdb_size(self) -> int:
        """RIEP size estimate of :meth:`sync_lsdb`'s elements, from the
        per-LSA caches (the snapshot is re-sent to every joiner)."""
        return sum(lsa.value_size() for lsa in self._lsdb.values())

    def load_lsdb(self, values: Sequence[dict]) -> None:
        """Install a bulk LSDB snapshot (enrollment fast-sync)."""
        changed = False
        local = self._local_addr_fn()
        for value in values:
            lsa = Lsa.from_value(value)
            current = self._lsdb.get(lsa.origin)
            if current is None or current.seq < lsa.seq:
                self._lsdb[lsa.origin] = lsa
                if ((current is None or current.neighbors != lsa.neighbors)
                        and lsa.origin != local):
                    self._dirty = True
                changed = True
        if changed:
            self._schedule_spf()

    # ------------------------------------------------------------------
    # Shortest paths
    # ------------------------------------------------------------------
    def _schedule_spf(self) -> None:
        if self._spf_due == inf:
            self._spf_due = self._engine.now + self._spf_delay

    def _ensure_table(self) -> None:
        """Recompute if the hold-down has ended.

        The recomputation waits for the first table query: during stack
        construction and flood storms members see LSA bursts but forward
        no routed traffic (the E6 build at 1,000 systems would run
        thousands of Dijkstras nobody reads).  It runs over the graph as
        of the query, so it folds in LSAs whose own hold-down has not
        ended: link-state at least as fresh as an eager recompute at the
        deadline would read, while the hold-down still batches the cost.
        """
        if self._engine.now >= self._spf_due:
            self._spf_due = inf
            self._compute_spf()

    def _compute_spf(self) -> None:
        local = self._local_addr_fn()
        if local is None:
            return
        # a changed address reads the old one's stored LSA and the new
        # one's adjacencies, so it runs even when nothing is dirty
        if not self._dirty and self._spf_source == local:
            self.spf_skipped += 1
            return
        self._dirty = False
        self.spf_runs += 1
        self._spf_source = local
        self._next_hop = self._dijkstra(local)

    def _dijkstra(self, source: Address) -> Dict[Address, Address]:
        """Shortest paths over the LSDB rows, the source's own row being
        its live adjacency set (a just-changed neighbor is usable before
        the LSA round-trips), with the standard two-way check inline: an
        edge exists only when both endpoints claim each other, and costs
        the larger of the two claims.  Heap pops are totally ordered by
        ``(dist, address)``, so the result does not depend on the order
        rows are stored or iterated in."""
        lsdb = self._lsdb
        lsdb_get = lsdb.get
        dist: Dict[Address, float] = {source: 0.0}
        first_hop: Dict[Address, Optional[Address]] = {source: None}
        heap: List[Tuple[float, Address]] = [(0.0, source)]
        visited: Set[Address] = set()
        dist_get = dist.get
        while heap:
            d, node = heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            hop_via = first_hop[node]
            from_source = node == source
            # a node is pushed only once its LSA claimed the edge back
            row = self._adjacencies if from_source else lsdb[node].neighbors
            for neighbor, cost in row.items():
                if neighbor in visited:
                    continue        # settled: no cost is negative
                back = lsdb_get(neighbor)
                back_cost = None if back is None else back.neighbors.get(node)
                if back_cost is None:
                    continue
                nd = d + (cost if cost >= back_cost else back_cost)
                cur = dist_get(neighbor)
                if cur is None or nd < cur - 1e-12:
                    dist[neighbor] = nd
                    first_hop[neighbor] = neighbor if from_source else hop_via
                    heappush(heap, (nd, neighbor))
        table = {}
        for dst, hop in first_hop.items():
            if dst != source and hop is not None:
                table[dst] = hop
        return table

    # ------------------------------------------------------------------
    # Introspection / metrics
    # ------------------------------------------------------------------
    def next_hop(self, destination: Address) -> Optional[Address]:
        """Step one of two-step routing: destination → next-hop address."""
        # _ensure_table inline: the RMT calls this once per relayed PDU
        if self._engine.now >= self._spf_due:
            self._spf_due = inf
            self._compute_spf()
        return self._next_hop.get(destination)

    def table(self) -> Dict[Address, Address]:
        """The full next-hop table (copy)."""
        self._ensure_table()
        return dict(self._next_hop)

    def table_size(self) -> int:
        """Number of destination entries — the E6/A1 metric."""
        self._ensure_table()
        return len(self._next_hop)

    def reachable(self) -> Set[Address]:
        """Destinations the current table can reach."""
        self._ensure_table()
        return set(self._next_hop)

    def lsdb_size(self) -> int:
        """Number of LSAs held."""
        return len(self._lsdb)

    def force_spf(self) -> None:
        """Run SPF immediately (tests and convergence measurements)."""
        self._spf_due = inf
        self._compute_spf()
