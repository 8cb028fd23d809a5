"""Physical systems (hosts and routers) in the simulated network.

A :class:`Node` is a named chassis with numbered interfaces; each interface
is one end of a :class:`~repro.sim.link.Link`.  What runs *on* the node —
a stack of IPC processes, or the baseline TCP/IP stack — is layered on top
by `repro.core.system` / `repro.baselines`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from .engine import Engine
from .link import Link, LinkEnd


class Interface:
    """A named attachment of a node to a link."""

    __slots__ = ("node", "name", "end")

    def __init__(self, node: "Node", name: str, end: LinkEnd) -> None:
        self.node = node
        self.name = name
        self.end = end

    @property
    def link(self) -> Link:
        """The link this interface is plugged into."""
        return self.end.link

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Interface {self.node.name}.{self.name} on {self.link.name}>"


class Node:
    """A host or router chassis."""

    __slots__ = ("engine", "name", "_interfaces", "_ifindex")

    def __init__(self, engine: Engine, name: str) -> None:
        self.engine = engine
        self.name = name
        self._interfaces: Dict[str, Interface] = {}
        self._ifindex = 0

    def add_interface(self, end: LinkEnd, name: Optional[str] = None) -> Interface:
        """Plug a link end into this node, returning the new interface."""
        if name is None:
            name = f"if{self._ifindex}"
        if name in self._interfaces:
            raise ValueError(f"{self.name} already has interface {name!r}")
        self._ifindex += 1
        interface = Interface(self, name, end)
        self._interfaces[name] = interface
        return interface

    def interface(self, name: str) -> Interface:
        """Look up an interface by name (KeyError if absent)."""
        return self._interfaces[name]

    def interfaces(self) -> Iterator[Interface]:
        """Iterate over interfaces in creation order."""
        return iter(self._interfaces.values())

    def interface_count(self) -> int:
        """Number of interfaces plugged in."""
        return len(self._interfaces)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.name} ifs={list(self._interfaces)}>"
