"""Directories: application name → location, at two levels.

Within a DIF (§5.3): the flow allocator must map a destination application
name to the address of the member IPCP where that application is
registered.  Each member floods its local registrations (with per-origin
sequence numbers, exactly like LSAs), so every member can answer lookups
locally — and, unlike DNS, the answer *never leaves the IPC facility*: the
requesting application is told a port id, not an address.

Across DIFs: an application may be reachable through several DIFs.  The
:class:`InterDifDirectory` records which DIFs serve which application
names.  In a full deployment this is itself a distributed application (the
paper's "e-mall" catalog, §6.7); here it is a shared in-process registry —
an out-of-band substitution that preserves the architectural property
under test: applications name applications, never addresses.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from .names import Address, ApplicationName, DifName
from .riep import M_WRITE, RiepMessage

DIRECTORY_OBJ = "/directory/registrations"


class DifDirectory:
    """The name→address directory replicated inside one DIF member."""

    __slots__ = ("_local_addr_fn", "_flood", "_own_seq", "_local_names",
                 "_remote", "updates_received", "updates_reflooded")

    def __init__(self, local_addr_fn: Callable[[], Optional[Address]],
                 flood_fn: Callable[[RiepMessage, Optional[Address]], int]) -> None:
        self._local_addr_fn = local_addr_fn
        self._flood = flood_fn
        self._own_seq = 0
        self._local_names: Set[ApplicationName] = set()
        # origin address -> (seq, set of names registered there)
        self._remote: Dict[Address, Tuple[int, Set[ApplicationName]]] = {}
        self.updates_received = 0
        self.updates_reflooded = 0

    # ------------------------------------------------------------------
    # Local registrations
    # ------------------------------------------------------------------
    def register(self, name: ApplicationName) -> None:
        """Register an application at this member and advertise it."""
        if name in self._local_names:
            return
        self._local_names.add(name)
        self._advertise()

    def unregister(self, name: ApplicationName) -> None:
        """Remove a local registration and advertise the change."""
        if name not in self._local_names:
            return
        self._local_names.discard(name)
        self._advertise()

    def _advertise(self) -> None:
        local = self._local_addr_fn()
        if local is None:
            return
        self._own_seq += 1
        message = RiepMessage(M_WRITE, obj=DIRECTORY_OBJ, value=self._own_value())
        self._flood(message, None)

    def _own_value(self) -> dict:
        local = self._local_addr_fn()
        assert local is not None
        return {
            "origin": local.parts,
            "seq": self._own_seq,
            "names": sorted(str(n) for n in self._local_names),
        }

    def announce_all(self) -> None:
        """Re-advertise local registrations (after enrollment completes)."""
        if self._local_names:
            self._advertise()

    # ------------------------------------------------------------------
    # Dissemination
    # ------------------------------------------------------------------
    def handle_update(self, message: RiepMessage,
                      from_neighbor: Optional[Address]) -> None:
        """Process a flooded directory update."""
        value = message.value
        origin = Address(*value["origin"])
        seq = int(value["seq"])
        self.updates_received += 1
        local = self._local_addr_fn()
        if local is not None and origin == local:
            return
        current = self._remote.get(origin)
        if current is not None and current[0] >= seq:
            return
        names = {ApplicationName.parse(text) for text in value["names"]}
        self._remote[origin] = (seq, names)
        self.updates_reflooded += 1
        self._flood(message, from_neighbor)

    def sync_snapshot(self) -> List[dict]:
        """All known registration records (for enrollment fast-sync)."""
        records = []
        local = self._local_addr_fn()
        if local is not None and self._local_names:
            records.append(self._own_value())
        for origin, (seq, names) in sorted(self._remote.items()):
            records.append({"origin": origin.parts, "seq": seq,
                            "names": sorted(str(n) for n in names)})
        return records

    def load_snapshot(self, records: List[dict]) -> None:
        """Install a bulk snapshot received at enrollment."""
        for value in records:
            origin = Address(*value["origin"])
            seq = int(value["seq"])
            current = self._remote.get(origin)
            if current is None or current[0] < seq:
                names = {ApplicationName.parse(t) for t in value["names"]}
                self._remote[origin] = (seq, names)

    def forget_origin(self, origin: Address) -> None:
        """Drop registrations learned from a departed member."""
        self._remote.pop(origin, None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, name: ApplicationName) -> Optional[Address]:
        """Address of the member where ``name`` is registered (or None)."""
        if name in self._local_names:
            return self._local_addr_fn()
        for origin, (_seq, names) in sorted(self._remote.items()):
            if name in names:
                return origin
        return None

    def known_names(self) -> Set[ApplicationName]:
        """Every application name registered anywhere in the DIF."""
        known = set(self._local_names)
        for _seq, names in self._remote.values():
            known |= names
        return known

    def size(self) -> int:
        """Total registration records held (a RIB-size metric)."""
        return len(self._local_names) + sum(
            len(names) for _seq, names in self._remote.values())


class InterDifDirectory:
    """Which DIFs can reach which application names.

    One instance is shared by all systems of a simulation.  ``register``
    is called by the system where an application binds to a DIF;
    ``candidates`` is what an IPC manager consults to choose the DIF for an
    outgoing flow request.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[ApplicationName, Set[DifName]] = {}

    def register(self, name: ApplicationName, dif: DifName) -> None:
        """Record that ``name`` is reachable via ``dif``."""
        self._entries.setdefault(name, set()).add(dif)

    def unregister(self, name: ApplicationName, dif: DifName) -> None:
        """Remove a reachability record."""
        difs = self._entries.get(name)
        if difs is not None:
            difs.discard(dif)
            if not difs:
                del self._entries[name]

    def candidates(self, name: ApplicationName) -> List[DifName]:
        """DIFs that advertise ``name``, sorted for determinism."""
        return sorted(self._entries.get(name, ()), key=str)

    def size(self) -> int:
        """Number of (name → DIF set) entries."""
        return len(self._entries)
