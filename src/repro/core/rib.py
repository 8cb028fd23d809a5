"""The Resource Information Base (RIB).

Each IPC process keeps a RIB: a tree of named objects holding everything the
management task set knows — enrolled neighbors, the directory of registered
application names, link-state advertisements, address assignments, QoS
offerings.  RIEP (the management protocol) is defined as operations *on RIB
objects*, so the RIB is the single point of coordination between the three
task sets the paper separates by timescale (§4).

Paths are POSIX-like strings (``/directory/names/video-server``).  Values
are plain Python objects.  Subscribers get called on every mutation beneath
their prefix, which is how routing reacts to new LSAs and the flow allocator
reacts to directory changes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Subscriber = Callable[[str, str, Any], None]  # (operation, path, value)

CREATE = "create"
WRITE = "write"
DELETE = "delete"


class RibError(KeyError):
    """Raised for operations on missing/duplicate RIB paths."""


def split_path(path: str) -> Tuple[str, ...]:
    """Normalize ``/a/b/c`` into its components; rejects empty paths."""
    parts = tuple(p for p in path.split("/") if p)
    if not parts:
        raise RibError(f"invalid RIB path {path!r}")
    return parts


def join_path(parts: Tuple[str, ...]) -> str:
    """Inverse of :func:`split_path`."""
    return "/" + "/".join(parts)


class Rib:
    """A flattened store of (path → value) with prefix subscriptions.

    Despite the tree-shaped path namespace there is no per-node dict
    tree: objects live in one flat dict keyed by parts tuples, and prefix
    queries are linear scans over the flat key set (the RIB is small per
    member; mutation and exact lookup are the hot operations).
    """

    __slots__ = ("_objects", "_subscribers")

    def __init__(self) -> None:
        self._objects: Dict[Tuple[str, ...], Any] = {}
        self._subscribers: List[Tuple[Tuple[str, ...], Subscriber]] = []

    # ------------------------------------------------------------------
    # Object operations
    # ------------------------------------------------------------------
    def create(self, path: str, value: Any = None) -> None:
        """Create a new object; :class:`RibError` if it already exists."""
        parts = split_path(path)
        if parts in self._objects:
            raise RibError(f"RIB object already exists: {path}")
        self._objects[parts] = value
        self._notify(CREATE, parts, value)

    def write(self, path: str, value: Any) -> None:
        """Set an object's value, creating it if necessary."""
        parts = split_path(path)
        existed = parts in self._objects
        self._objects[parts] = value
        self._notify(WRITE if existed else CREATE, parts, value)

    def read(self, path: str) -> Any:
        """Return the object's value; :class:`RibError` when absent."""
        parts = split_path(path)
        if parts not in self._objects:
            raise RibError(f"no RIB object at {path}")
        return self._objects[parts]

    def read_or(self, path: str, default: Any = None) -> Any:
        """Like :meth:`read` but returning ``default`` when absent."""
        return self._objects.get(split_path(path), default)

    def exists(self, path: str) -> bool:
        """True when an object exists at exactly ``path``."""
        return split_path(path) in self._objects

    def delete(self, path: str) -> Any:
        """Remove an object and return its last value."""
        parts = split_path(path)
        if parts not in self._objects:
            raise RibError(f"no RIB object at {path}")
        value = self._objects.pop(parts)
        self._notify(DELETE, parts, value)
        return value

    def delete_if_exists(self, path: str) -> None:
        """Remove an object when present; silent otherwise."""
        parts = split_path(path)
        if parts in self._objects:
            value = self._objects.pop(parts)
            self._notify(DELETE, parts, value)

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def list(self, prefix: str) -> List[str]:
        """All object paths strictly beneath ``prefix``, sorted."""
        parts = split_path(prefix)
        return sorted(
            join_path(p) for p in self._objects
            if len(p) > len(parts) and p[:len(parts)] == parts)

    def children(self, prefix: str) -> List[str]:
        """Immediate child component names beneath ``prefix``, sorted."""
        parts = split_path(prefix)
        names = {p[len(parts)] for p in self._objects
                 if len(p) > len(parts) and p[:len(parts)] == parts}
        return sorted(names)

    def items(self, prefix: str) -> Iterator[Tuple[str, Any]]:
        """(path, value) pairs beneath ``prefix``, sorted by path."""
        for path in self.list(prefix):
            yield path, self._objects[split_path(path)]

    def size(self) -> int:
        """Total number of objects in the RIB."""
        return len(self._objects)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, prefix: str, callback: Subscriber) -> Callable[[], None]:
        """Invoke ``callback(op, path, value)`` for mutations under
        ``prefix``; returns an unsubscribe function."""
        parts = split_path(prefix)
        entry = (parts, callback)
        self._subscribers.append(entry)

        def unsubscribe() -> None:
            if entry in self._subscribers:
                self._subscribers.remove(entry)
        return unsubscribe

    def _notify(self, operation: str, parts: Tuple[str, ...], value: Any) -> None:
        path = join_path(parts)
        for prefix, callback in list(self._subscribers):
            if parts[:len(prefix)] == prefix:
                callback(operation, path, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Rib {len(self._objects)} objects>"
