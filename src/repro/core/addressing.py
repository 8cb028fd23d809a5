"""Address assignment policies and route aggregation.

Addresses are assigned at enrollment by the DIF's management (§5.2).  The
paper argues addresses should be *topological* — location-dependent within
the DIF — so that routing operates over a stable structure (§5.3, citing
O'Dell's GSE).  Two policies implement the choice ablated in experiment A1:

* :class:`FlatAddressing` — opaque counters; no structure to exploit.
* :class:`TopologicalAddressing` — a region path prefix (supplied as a hint
  by the joining member's management) plus a per-region counter; forwarding
  tables over such addresses can be aggregated by prefix.

:func:`aggregate_forwarding_table` performs that aggregation: contiguous
regions whose members share a next hop collapse into one prefix entry.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .names import Address


class AddressingError(RuntimeError):
    """Raised when an address cannot be assigned or released."""


class AddressingPolicy:
    """Interface: how a DIF's enrollment authority hands out addresses."""

    def assign(self, region_hint: Optional[Sequence[int]] = None) -> Address:
        """Allocate a fresh address (optionally guided by a region hint)."""
        raise NotImplementedError

    def release(self, address: Address) -> None:
        """Return an address to the pool (default: no reuse)."""

    def describe(self) -> str:
        """Short policy name for DESIGN/EXPERIMENTS tables."""
        raise NotImplementedError


class FlatAddressing(AddressingPolicy):
    """Sequential single-component addresses; ignores region hints."""

    def __init__(self, start: int = 1) -> None:
        if start < 0:
            raise ValueError("start must be non-negative")
        self._next = start
        self._released: List[int] = []

    def assign(self, region_hint: Optional[Sequence[int]] = None) -> Address:
        if self._released:
            return Address(self._released.pop())
        value = self._next
        self._next += 1
        return Address(value)

    def release(self, address: Address) -> None:
        if len(address) != 1:
            raise AddressingError(f"not a flat address: {address!r}")
        self._released.append(address.parts[0])

    def describe(self) -> str:
        return "flat"


class TopologicalAddressing(AddressingPolicy):
    """Region-prefixed addresses: (region path..., member counter).

    The joining member supplies its region path (e.g. which access network
    or ISP PoP it attaches under); members in the same region share the
    prefix, so routes to a whole region aggregate to one entry.
    """

    def __init__(self, default_region: Tuple[int, ...] = (0,)) -> None:
        self._default_region = tuple(default_region)
        self._counters: Dict[Tuple[int, ...], int] = {}

    def assign(self, region_hint: Optional[Sequence[int]] = None) -> Address:
        region = tuple(region_hint) if region_hint else self._default_region
        counter = self._counters.get(region, 1)
        self._counters[region] = counter + 1
        return Address(*region, counter)

    def release(self, address: Address) -> None:
        # counters are not rewound; address reuse within a region is unsafe
        # while routing state may still reference the old holder.
        return

    def describe(self) -> str:
        return "topological"


def aggregate_forwarding_table(
        table: Dict[Address, Hashable]) -> List[Tuple[Tuple[int, ...], Hashable]]:
    """Collapse a (destination address → next hop) map into prefix entries.

    Builds a trie over address components and merges every subtree whose
    leaves all share one next hop into a single ``(prefix, next_hop)``
    entry.  With flat addresses nothing merges (each address is its own
    1-component prefix), so the entry count equals the table size — which is
    exactly the contrast experiment A1 measures.

    Longest-prefix lookup over the result is provided by
    :func:`lookup_aggregated`.
    """
    root: dict = {}
    LEAF = object()
    for address, next_hop in table.items():
        node = root
        for part in address:
            node = node.setdefault(part, {})
        node[LEAF] = next_hop

    def leaf_hops(node: dict) -> Dict[Hashable, int]:
        """Histogram of next hops among the leaves of a subtree."""
        counts: Dict[Hashable, int] = {}
        if LEAF in node:
            counts[node[LEAF]] = counts.get(node[LEAF], 0) + 1
        for part, child in node.items():
            if part is LEAF:
                continue
            for hop, count in leaf_hops(child).items():
                counts[hop] = counts.get(hop, 0) + count
        return counts

    entries: List[Tuple[Tuple[int, ...], Hashable]] = []
    NO_COVER = object()

    def emit(node: dict, prefix: Tuple[int, ...], inherited: Hashable) -> None:
        counts = leaf_hops(node)
        if len(counts) == 1:
            hop = next(iter(counts))
            if hop != inherited:
                entries.append((prefix, hop))
            return
        # mixed subtree: install a covering route for the most common hop
        # and let longer prefixes override it (longest-prefix semantics).
        # An exact leaf at this node shares the prefix, so it must BE the
        # covering value to stay unambiguous.
        if LEAF in node:
            covering = node[LEAF]
        else:
            covering = max(counts.items(), key=lambda kv: (kv[1],))[0]
        if covering != inherited:
            entries.append((prefix, covering))
        for part, child in node.items():
            if part is LEAF:
                continue
            emit(child, prefix + (part,), covering)

    if table:
        emit(root, (), NO_COVER)
    return sorted(entries, key=lambda e: (len(e[0]), e[0]))


def lookup_aggregated(entries: Sequence[Tuple[Tuple[int, ...], Hashable]],
                      address: Address) -> Optional[Hashable]:
    """Longest-prefix match of ``address`` against aggregated entries."""
    best_len = -1
    best_hop: Optional[Hashable] = None
    for prefix, hop in entries:
        if len(prefix) > best_len and address.matches_prefix(prefix):
            best_len = len(prefix)
            best_hop = hop
    return best_hop
