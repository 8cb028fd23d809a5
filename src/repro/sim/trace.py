"""Metrics and tracing for experiments.

Two small primitives cover everything the experiments report:

* :class:`Counter` — monotonically increasing named counts.
* :class:`Tracer` — a bag of counters plus an optional event log,
  shared by a whole simulation.

What a trace renders is the counters and the event log.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def incr(self, amount: int = 1) -> None:
        """Increase the counter; negative amounts are rejected."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Tracer:
    """Collection point for all measurements in one simulation run.

    Components grab counters by name; the experiment harness reads
    them afterwards.  An optional bounded event log captures qualitative
    traces (handoffs, enrollments, failovers) for assertions in tests.

    A count its owner already keeps (frames a link delivered, a flood
    node's first deliveries) is not counted per event: the owner
    registers a read with :meth:`read_from`, and the counter's value is
    taken from it when :meth:`counters` / :meth:`counter_value` render.
    """

    def __init__(self, log_limit: int = 100_000) -> None:
        self._counters: Dict[str, Counter] = {}
        self._reads: Dict[str, List[Callable[[], int]]] = {}
        self._log: List[Tuple[float, str, Dict[str, Any]]] = []
        self._log_limit = log_limit

    # -- counters ------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter called ``name`` (created on first
        use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        counter.incr(amount)

    def read_from(self, name: str, read: Callable[[], int]) -> None:
        """Add ``read()``, an owner's running total, to the counter called
        ``name`` whenever it is rendered."""
        self._reads.setdefault(name, []).append(read)

    def counter_value(self, name: str) -> int:
        """Value of ``name`` (0 if never touched)."""
        counter = self._counters.get(name)
        value = counter.value if counter is not None else 0
        return value + sum(read() for read in self._reads.get(name, ()))

    def counters(self) -> Dict[str, int]:
        """Snapshot of all counters as a plain dict, sorted by name.  A
        read-from counter appears once its owners' total is non-zero, as
        a per-event counter appears on its first count."""
        values = {name: c.value for name, c in self._counters.items()}
        for name, reads in self._reads.items():
            total = sum(read() for read in reads)
            if total:
                values[name] = values.get(name, 0) + total
        return dict(sorted(values.items()))

    # -- event log -----------------------------------------------------
    def log(self, time: float, kind: str, **fields: Any) -> None:
        """Record a qualitative event (bounded; oldest kept)."""
        if len(self._log) < self._log_limit:
            self._log.append((time, kind, fields))

    def events(self, kind: Optional[str] = None) -> List[Tuple[float, str, Dict[str, Any]]]:
        """All logged events, optionally filtered by ``kind``."""
        if kind is None:
            return list(self._log)
        return [entry for entry in self._log if entry[1] == kind]
