"""Metrics and tracing for experiments.

Three small primitives cover everything the experiments report:

* :class:`Counter` — monotonically increasing named counts.
* :class:`TimeSeries` — (time, value) samples, with summary statistics.
* :class:`Tracer` — a bag of counters/series plus an optional event log,
  shared by a whole simulation.

What a trace renders is the counters and the event log.  No layer
samples a series during a run: a sample nobody reads costs a call per
event and tells no one anything, so a series is added together with
its reader.
"""

from __future__ import annotations

import math
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


class TimeSeries:
    """(time, value) samples with summary statistics."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[Tuple[float, float]] = []

    def add(self, time: float, value: float) -> None:
        """Append one sample."""
        self.samples.append((time, float(value)))

    @property
    def values(self) -> List[float]:
        """Just the sampled values, in order."""
        return [v for _, v in self.samples]

    def count(self) -> int:
        """Number of samples."""
        return len(self.samples)

    def mean(self) -> float:
        """Arithmetic mean of the values (NaN when empty)."""
        if not self.samples:
            return math.nan
        return sum(self.values) / len(self.samples)

    def minimum(self) -> float:
        """Smallest value (NaN when empty)."""
        return min(self.values) if self.samples else math.nan

    def maximum(self) -> float:
        """Largest value (NaN when empty)."""
        return max(self.values) if self.samples else math.nan

    def stddev(self) -> float:
        """Population standard deviation (NaN when empty)."""
        if not self.samples:
            return math.nan
        mu = self.mean()
        return math.sqrt(sum((v - mu) ** 2 for v in self.values) / len(self.samples))

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile of the values, ``pct`` in [0, 100]."""
        if not self.samples:
            return math.nan
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        ordered = sorted(self.values)
        rank = max(0, min(len(ordered) - 1,
                          int(math.ceil(pct / 100.0 * len(ordered))) - 1))
        return ordered[rank]

    def summary(self) -> Dict[str, float]:
        """Dict of count/mean/min/max/p50/p95/p99 for reporting tables."""
        return {
            "count": float(self.count()),
            "mean": self.mean(),
            "min": self.minimum(),
            "max": self.maximum(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class Tracer:
    """Collection point for all measurements in one simulation run.

    Components grab counters/series by name; the experiment harness reads
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
        self._series: Dict[str, TimeSeries] = {}
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

    # -- time series ---------------------------------------------------
    def series(self, name: str) -> TimeSeries:
        """Get or create the time series called ``name``."""
        ts = self._series.get(name)
        if ts is None:
            ts = TimeSeries(name)
            self._series[name] = ts
        return ts

    def sample(self, name: str, time: float, value: float) -> None:
        """Shorthand for ``tracer.series(name).add(time, value)``."""
        self.series(name).add(time, value)

    def series_names(self) -> List[str]:
        """All series created so far."""
        return sorted(self._series)

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
