"""Naming and addressing for the IPC architecture.

The paper's naming rules (§3.1, §5.3, §6.3, §7, after Saltzer and Shoch):

* **Application names** are location-independent ("what we seek").
  Applications — including the IPC processes themselves, which are
  applications of the layer below — are identified by an
  :class:`ApplicationName` and never by an address.
* **Addresses** are location-dependent identifiers *internal to a DIF*
  ("where it is"); they are assigned at enrollment and are never visible
  outside the DIF.  :class:`Address` supports both flat and topological
  (hierarchical) forms; topological addresses enable route aggregation.
* **Port IDs** are local, dynamically assigned handles naming one end of a
  flow at a layer boundary — explicitly *not* overloaded with application
  semantics (no well-known ports).
"""

from __future__ import annotations

from typing import Dict, Tuple


class ApplicationName:
    """A location-independent application process name.

    ``process``   — the application process name (e.g. ``"video-server"``).
    ``instance``  — distinguishes instances of the same program (default "1").

    IPC processes are named like any other application: an IPCP of DIF
    ``"metro"`` on system ``"host-a"`` might be ``ApplicationName("metro.ipcp.host-a")``.
    """

    __slots__ = ("process", "instance")

    def __init__(self, process: str, instance: str = "1") -> None:
        if not process:
            raise ValueError("application process name must be non-empty")
        self.process = process
        self.instance = instance

    def key(self) -> Tuple[str, str]:
        """Hashable identity tuple."""
        return (self.process, self.instance)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ApplicationName) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        if self.instance == "1":
            return f"App({self.process})"
        return f"App({self.process}/{self.instance})"

    def __str__(self) -> str:
        return self.process if self.instance == "1" else f"{self.process}/{self.instance}"

    @classmethod
    def parse(cls, text: str) -> "ApplicationName":
        """Inverse of ``str()``: ``"proc"`` or ``"proc/instance"``."""
        if "/" in text:
            process, instance = text.split("/", 1)
            return cls(process, instance)
        return cls(text)


class Address(tuple):
    """A DIF-internal address: a tuple of non-negative integers.

    A flat address is a 1-tuple (``Address(7)``); a topological address is a
    longer tuple whose leading components are location-dependent region
    labels (``Address(2, 0, 13)`` = region 2, sub-region 0, host 13).  The
    paper requires topological addresses for stable routing (§5.3) and we
    ablate this choice in experiment A1.

    An address *is* its tuple of components, so hashing, equality and
    ordering run in C on every routing and forwarding dict probe, and
    ``Address(2, 0, 13) == (2, 0, 13)`` with equal hashes.  Addresses are
    interned: one object per address per process, which pickling and
    copying hand back too.
    """

    __slots__ = ()

    # every address, found by its plain components
    _interned: Dict["Address", "Address"] = {}
    # its plain components, one tuple per address: every RIEP value
    # built from ``parts`` shares it instead of holding a fresh copy
    _parts: Dict["Address", Tuple[int, ...]] = {}

    def __new__(cls, *parts: int) -> "Address":
        interned = cls._interned.get(parts)
        if interned is not None:
            return interned
        if not parts:
            raise ValueError("address needs at least one component")
        for p in parts:
            if not isinstance(p, int) or p < 0:
                raise ValueError(f"address components must be ints >= 0, got {parts!r}")
        address = super().__new__(cls, parts)
        cls._interned[address] = address
        cls._parts[address] = parts
        return address

    def __reduce__(self):
        # every pickle protocol and copy/deepcopy rebuild through
        # __new__, so they hand back the interned instance
        return (Address, tuple(self))

    @property
    def parts(self) -> Tuple[int, ...]:
        """The components as a plain tuple (what RIEP values carry)."""
        return self._parts[self]

    @property
    def is_flat(self) -> bool:
        """True for single-component addresses."""
        return len(self) == 1

    def prefix(self, length: int) -> Tuple[int, ...]:
        """The first ``length`` components (for aggregation)."""
        if not 0 <= length <= len(self):
            raise ValueError(f"prefix length {length} out of range for {self!r}")
        return self[:length]

    def matches_prefix(self, prefix: Tuple[int, ...]) -> bool:
        """True when this address begins with ``prefix``."""
        return self[:len(prefix)] == tuple(prefix)

    def __repr__(self) -> str:
        return "Addr(" + ".".join(str(p) for p in self) + ")"

    def __str__(self) -> str:
        return ".".join(str(p) for p in self)


class PortId:
    """A local identifier for one end of a flow at a layer boundary.

    Port IDs are allocated dynamically per system and carry no application
    semantics; equality is by (system scope is implicit — a PortId is only
    meaningful to the system that allocated it).
    """

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        if value < 0:
            raise ValueError("port id must be non-negative")
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PortId) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("port", self.value))

    def __repr__(self) -> str:
        return f"Port({self.value})"


class DifName:
    """The name of a distributed IPC facility (a layer instance).

    Joining a DIF requires knowing its name or the name of a member (§5.2);
    there is no global namespace of DIFs — a DIF name is just an application
    name for the distributed application that is the DIF.
    """

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        if not value:
            raise ValueError("DIF name must be non-empty")
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DifName) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("dif", self.value))

    def __repr__(self) -> str:
        return f"DIF({self.value})"

    def __str__(self) -> str:
        return self.value

    def ipcp_name(self, system_name: str) -> ApplicationName:
        """Conventional application name for this DIF's IPCP on a system."""
        return ApplicationName(f"{self.value}.ipcp.{system_name}")
