"""Deterministic discrete-event simulation engine.

Everything in this reproduction — the IPC architecture under test and the
TCP/IP-style baseline — runs on this engine, never on real sockets.  The
engine keeps a simulated clock (float seconds), a binary heap of distinct
pending timestamps, and a per-timestamp batch of events.  Determinism is
guaranteed by running a timestamp's events in batch append order, which
is scheduling order, so two runs with the same seed and the same call
order produce identical traces.

Typical use::

    engine = Engine()
    engine.call_at(1.5, lambda: print("hello at t=1.5"))
    engine.run(until=10.0)
"""

from __future__ import annotations

import gc
import heapq
import math
from typing import Any, Callable, Dict, List, Optional, Tuple


_INF = math.inf


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Engine.call_at` / :meth:`Engine.call_later`
    and can be cancelled.  A cancelled event stays in its timestamp batch but
    is skipped when reached (lazy deletion), which keeps cancellation O(1).
    """

    __slots__ = ("time", "callback", "args", "cancelled", "label")

    def __init__(self, time: float, callback: Callable[..., None],
                 args: Tuple[Any, ...], label: str = "") -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time comes
        (harmless once it has run)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {self.label!r} {state}>"


class Engine:
    """A priority-queue discrete-event simulator; the clock starts at 0."""

    def __init__(self) -> None:
        #: Current simulated time in seconds.  A plain attribute, read on
        #: every send, arrival and timer; only this constructor and
        #: :meth:`run` write it.
        self.now = 0.0
        # Same-timestamp batching: the heap holds each *distinct* pending
        # timestamp once; the events for a timestamp live in a list keyed
        # by that exact float.  A burst of N simultaneous deliveries costs
        # one heappush plus N list appends instead of N heap sifts, and
        # within a batch append order is scheduling order.
        self._heap: List[float] = []
        self._batches: Dict[float, List[Event]] = {}
        # consumed prefix of a partially drained batch: the batch at the
        # minimum timestamp when run() unwinds on a raising callback, or
        # when next_event_time() skipped its cancelled head (so this holds
        # at most one meaningful entry)
        self._batch_pos: Dict[float, int] = {}
        self._running = False
        self._events_processed = 0
        self._last_event_time = 0.0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def last_event_time(self) -> float:
        """Timestamp of the most recently executed event (the start time
        before anything has run).

        Unlike :attr:`now` this never moves on an empty advance: a
        ``run(until=...)`` that parks the clock past the last event
        leaves it untouched.  That makes it the *causal* end of a run —
        a function of the events alone — where the parked clock is an
        artifact of whichever horizon the caller chose.  The shard
        traces render this value so per-shard fingerprints do not
        depend on the (causally irrelevant) instants at which the
        coordinator's grants happened to park each engine.
        """
        return self._last_event_time

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest live event, or None when the queue is
        drained.

        Cancelled batch heads are skipped on the way (they are dead
        weight the run loop would skip anyway), and fully-cancelled
        batches are dropped, so the peek is amortized O(1).  Used by the
        shard coordinator to fast-forward synchronization rounds over
        quiet stretches of simulated time.
        """
        heap = self._heap
        batches = self._batches
        batch_pos = self._batch_pos
        while heap:
            when = heap[0]
            batch = batches[when]
            pos = batch_pos.pop(when, 0)
            length = len(batch)
            while pos < length and batch[pos].cancelled:
                pos += 1
            if pos < length:
                if pos:
                    batch_pos[when] = pos
                return when
            del batches[when]
            heapq.heappop(heap)
        return None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, when: float, callback: Callable[..., None],
                *args: Any, label: str = "") -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``.

        Raises :class:`SimulationError` unless ``now <= when < inf``; the
        chained comparison is False for NaN, so NaN is refused too (a NaN
        key would sit in the heap comparing False against everything and
        let later events run out of order).
        """
        if not self.now <= when < _INF:
            raise SimulationError(
                f"cannot schedule at t={when!r}, clock is at t={self.now!r}")
        event = Event(when, callback, args, label)
        batch = self._batches.get(when)
        if batch is None:
            self._batches[when] = [event]
            heapq.heappush(self._heap, when)
        else:
            batch.append(event)
        return event

    def call_later(self, delay: float, callback: Callable[..., None],
                   *args: Any, label: str = "") -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds.

        Raises :class:`SimulationError` unless ``delay >= 0`` and the
        resulting time is finite (NaN fails both comparisons).
        """
        # inlined call_at: this is the hottest scheduling entry point
        when = self.now + delay
        if not (delay >= 0.0 and when < _INF):
            raise SimulationError(
                f"cannot schedule after delay {delay!r}, clock is at "
                f"t={self.now!r}")
        event = Event(when, callback, args, label)
        batch = self._batches.get(when)
        if batch is None:
            self._batches[when] = [event]
            heapq.heappush(self._heap, when)
        else:
            batch.append(event)
        return event

    def call_soon(self, callback: Callable[..., None], *args: Any,
                  label: str = "") -> Event:
        """Schedule ``callback(*args)`` at the current time, after events
        already queued for this instant."""
        return self.call_at(self.now, callback, *args, label=label)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the event horizon ``until`` is
        reached.

        Returns the simulated time at which the run stopped.  With a
        horizon the clock ends exactly at ``until``, whether events remain
        beyond it or the queue drained first.  A horizon before the clock
        raises :class:`SimulationError`, like scheduling in the past: the
        clock never moves backwards (NaN is refused too; ``until == now``
        is a legal no-op).  An exception a callback raises propagates; the
        event counts as executed, and the next ``run()`` resumes with the
        event after it.

        The cyclic garbage collector is paused for the call and left as
        the caller had it on return, exception or not (an inner run on
        another engine finds it paused and leaves it paused).  Its passes
        rescan a live heap that grows during a run, while reference
        counting already frees every frame, event and PDU; the little
        cyclic garbage a run leaves waits for the first pass after it
        (docs/ARCHITECTURE.md, "The engine core").
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        if until is not None and not until >= self.now:
            raise SimulationError(
                f"cannot run until t={until!r}, clock is at t={self.now!r}")
        self._running = True
        collecting = gc.isenabled()
        gc.disable()
        heap = self._heap
        batches = self._batches
        batch_pos = self._batch_pos
        heappop = heapq.heappop
        try:
            while heap:
                when = heap[0]
                if until is not None and when > until:
                    break
                # drain the batch at the minimum timestamp in append
                # (= scheduling) order; callbacks may append same-time
                # events to the live list, which land after the cursor, so
                # len(batch) is re-read every iteration
                batch = batches[when]
                pos = batch_pos.pop(when, 0)
                try:
                    while pos < len(batch):
                        event = batch[pos]
                        pos += 1
                        if event.cancelled:
                            continue
                        self.now = when
                        self._last_event_time = when
                        self._events_processed += 1
                        event.callback(*event.args)
                except BaseException:
                    # a callback that raises is consumed like any other:
                    # the batch stays queued, so the next run() must resume
                    # after it, not re-execute the prefix (pos == len(batch)
                    # is fine — that run drops the batch without a step)
                    batch_pos[when] = pos
                    raise
                del batches[when]
                heappop(heap)
            if until is not None:
                self.now = until
        finally:
            self._running = False
            if collecting:
                gc.enable()
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Engine t={self.now:.6f} "
                f"executed={self._events_processed}>")


class Timer:
    """A restartable one-shot timer bound to an :class:`Engine`.

    Protocol machinery (EFCP retransmission, enrollment timeouts, SCTP
    heartbeats...) uses this instead of raw events so restart/cancel logic
    lives in one place.  A restart to a later deadline keeps the pending
    event, which re-arms itself at the deadline when it comes early.
    """

    def __init__(self, engine: Engine, callback: Callable[[], None],
                 label: str = "") -> None:
        self._engine = engine
        self._callback = callback
        self._label = label
        self._event: Optional[Event] = None
        self._deadline = 0.0

    @property
    def running(self) -> bool:
        """True while the timer is armed."""
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """(Re)arm the timer to fire ``delay`` seconds from now."""
        self._deadline = deadline = self._engine.now + delay
        if self._event is not None and self._event.time <= deadline < _INF:
            return
        self.cancel()
        self._event = self._engine.call_later(delay, self._fire, label=self._label)

    def cancel(self) -> None:
        """Disarm the timer if armed; harmless otherwise."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        if self._deadline > self._engine.now:
            self._event = self._engine.call_at(self._deadline, self._fire,
                                               label=self._label)
            return
        self._event = None
        self._callback()


class PeriodicTask:
    """Repeatedly invoke a callback at a fixed period until stopped."""

    def __init__(self, engine: Engine, period: float,
                 callback: Callable[[], None], label: str = "") -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        self._engine = engine
        self._period = period
        self._callback = callback
        self._label = label
        self._event: Optional[Event] = None
        self._stopped = True

    @property
    def running(self) -> bool:
        """True while the periodic task is scheduled."""
        return not self._stopped

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Begin firing; first invocation after ``initial_delay`` (default:
        one period)."""
        self._stopped = False
        delay = self._period if initial_delay is None else initial_delay
        self._schedule(delay)

    def stop(self) -> None:
        """Cease firing; safe to call repeatedly."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _schedule(self, delay: float) -> None:
        if self._stopped:
            return
        self._event = self._engine.call_later(delay, self._tick, label=self._label)

    def _tick(self) -> None:
        if self._stopped:
            return
        self._callback()
        self._schedule(self._period)
