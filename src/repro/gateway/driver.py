"""Bridging the discrete-event engine onto an asyncio event loop.

The simulated engine and an asyncio loop are both event loops; the
difference is who owns time.  :class:`AsyncEngineDriver` supports both
ownership contracts:

* ``mode="wall"`` — wall clock owns time.  ``loop.time()`` is mapped
  onto the simulated clock.  A socket read is one engine event, run to
  completion by :meth:`drain` at the end of that read, in the same loop
  turn; a background task sleeps until the engine's next timer (an
  actual ``loop.call_later`` deadline, pre-empted by :meth:`inject` or
  by a drain that armed an earlier timer) and runs what is due then.
  This is how :class:`~repro.gateway.server.GatewayServer` serves live
  traffic: EFCP retransmission timers, keepalives, and allocation
  retries fire in real seconds.

* ``mode="fast"`` — causality owns time.  :meth:`run_until` drains due
  events, yields to the loop for socket IO, and fast-forwards the
  simulated clock to the engine's next timer **only when no frame is in
  flight** (senders and receivers report via :meth:`io_begin` /
  :meth:`io_end`).  Idle sim-time compresses to nothing, while a timer
  can never fire ahead of a frame that would have cancelled it — which
  is exactly what makes a socket run reproduce the simulated run's
  transcript, event for event.  With ``record=True`` every clock
  advance and injection lands in :attr:`journal`, the deterministic
  replay transcript.

All engine mutations driven by sockets must go through :meth:`inject`
(or :meth:`enqueue` + :meth:`drain`, once per read for all its frames),
which schedule the callback as an ordinary engine event at the current
simulated instant — socket callbacks never touch stack state directly,
so engine-event ordering stays the only ordering there is.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, List, Optional, Tuple

from ..sim.engine import Engine


class AsyncEngineDriver:
    """One engine, one asyncio loop, one time contract."""

    def __init__(self, engine: Engine, mode: str = "wall",
                 time_scale: float = 1.0, idle_grace: float = 0.02,
                 record: bool = False) -> None:
        if mode not in ("wall", "fast"):
            raise ValueError(f"unknown driver mode {mode!r}")
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.engine = engine
        self.mode = mode
        self.time_scale = time_scale
        self.idle_grace = idle_grace
        #: deterministic-replay transcript: ("advance", sim_time) and
        #: ("inject", label) entries, in execution order
        self.journal: Optional[List[Tuple[str, Any]]] = [] if record else None
        self._inflight = 0
        self._activity = 0
        self._wake_pending = False
        self._waiters: List["asyncio.Future[bool]"] = []
        self._task: Optional["asyncio.Task[None]"] = None
        self._stopped = False
        # wall mode: the loop and the (wall, sim) instant the clocks
        # were tied at, the re-entry guard around engine.run, who hears
        # of a failed callback during the current run, and the sim time
        # of the timer the pump sleeps towards (inf: idle, nothing armed)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wall0 = self._sim0 = 0.0
        self._running = False
        self._on_error: Optional[Callable[[Exception], None]] = None
        self._armed = float("inf")

    # ------------------------------------------------------------------
    # Socket-side entry points (called from transport callbacks)
    # ------------------------------------------------------------------
    def enqueue(self, fn: Callable[..., None], *args: Any,
                label: str = "gw.inject") -> None:
        """Queue ``fn(*args)`` as an engine event at the current
        simulated instant, after events already queued for it.  Nothing
        is woken: the caller, a socket read, owes a :meth:`drain` right
        after (a lone callback from elsewhere goes through :meth:`inject`)."""
        self.engine.call_at(self.engine.now, self._guarded, fn, args,
                            label=label)
        self._activity += 1
        if self.journal is not None:
            self.journal.append(("inject", label))

    def inject(self, fn: Callable[..., None], *args: Any,
               label: str = "gw.inject") -> None:
        """Run ``fn(*args)`` inside the engine at the current simulated
        instant, after events already queued for it."""
        self.enqueue(fn, *args, label=label)
        self._wake()

    def drain(self, on_error: Optional[Callable[[Exception], None]] = None
              ) -> None:
        """End of a read batch: run what is due, here, in this loop turn.

        Wall mode runs the engine to the present — the frames just
        enqueued, whatever they schedule for the same instant, and any
        timer that came due — so the replies exist before the caller
        flushes its socket, and the pump task is woken only if the run
        armed a timer earlier than the one it sleeps towards.  An
        exception one of the enqueued callbacks raises is handed to
        ``on_error`` (the connection that was being read contains it)
        and the run carries on.  Called while the engine is already
        running it does nothing: that run reaches the new events anyway.

        Fast mode (no pump task) only wakes :meth:`run_until`, which
        owns the engine.
        """
        if self._task is None:
            self._wake()
            return
        if self._running:
            return
        self._run_due(on_error or self._report)
        nxt = self.engine.next_event_time()
        if nxt is not None and nxt < self._armed:
            self._wake()

    def _guarded(self, fn: Callable[..., None], args: Tuple[Any, ...]
                 ) -> None:
        """An enqueued callback's failure belongs to the connection
        being read (``on_error`` closes it), not to whoever called
        ``engine.run``: the reads of the other connections queued
        behind it in the same run are still served.  Fast mode has
        nobody to tell and lets it fail the session.
        """
        try:
            fn(*args)
        except Exception as exc:
            if self._on_error is None:
                raise
            self._on_error(exc)

    def io_begin(self) -> None:
        """A frame left for the network; fast mode must not fast-forward
        past timers until it lands (or the stall backstop trips)."""
        self._inflight += 1

    def io_end(self) -> None:
        """A frame arrived off the network."""
        self._inflight -= 1
        self._activity += 1
        self._wake()

    @property
    def inflight(self) -> int:
        """Frames sent but not yet received (tracked channels only)."""
        return self._inflight

    # ------------------------------------------------------------------
    # fast mode: causality owns time
    # ------------------------------------------------------------------
    async def run_until(self, predicate: Callable[[], bool],
                        timeout: float = 30.0,
                        horizon: Optional[float] = None) -> bool:
        """Drive the engine until ``predicate()`` holds or ``timeout``
        simulated seconds elapse; returns whether it held.

        ``horizon`` (absolute sim time, default the deadline) bounds how
        far a *fully idle* engine — no due events, no inflight frames,
        no fresh injections — is allowed to jump.  :meth:`settle` uses
        it to make "advance the clock by X" terminate even when nothing
        is scheduled.
        """
        if self.mode != "fast":
            raise RuntimeError("run_until() is a fast-mode API; wall mode "
                               "runs via start()/stop()")
        engine = self.engine
        deadline = engine.now + timeout
        if horizon is None:
            horizon = deadline
        idle_strikes = 0
        stalls = 0
        while True:
            engine.run(until=engine.now)   # drain everything already due
            if predicate():
                return True
            if engine.now >= deadline:
                return predicate()
            if await self._yield_io():
                idle_strikes = 0
                stalls = 0
                continue
            if self._inflight > 0 and stalls < 3:
                # frames are on the wire: wait for them, never jump a
                # timer over them.  The backstop bounds a leaked counter
                # (e.g. a dropped UDP datagram) to a short wall stall.
                if await self._wait_wake(self.idle_grace * 25):
                    stalls = 0
                else:
                    stalls += 1
                idle_strikes = 0
                continue
            nxt = engine.next_event_time()
            if nxt is not None and nxt <= horizon:
                engine.run(until=nxt)
                if self.journal is not None:
                    self.journal.append(("advance", nxt))
                idle_strikes = 0
                continue
            # nothing due inside the horizon: give the OS one grace
            # period to surface bytes before declaring the engine idle
            if await self._wait_wake(self.idle_grace):
                idle_strikes = 0
                continue
            idle_strikes += 1
            if idle_strikes < 2:
                continue
            if horizon > engine.now:
                engine.run(until=horizon)
                if self.journal is not None:
                    self.journal.append(("advance", horizon))
            return predicate()

    async def settle(self, duration: float, timeout_slack: float = 5.0) -> None:
        """Advance the simulated clock by ``duration`` seconds, serving
        whatever IO and timers fall inside the window."""
        target = self.engine.now + duration
        await self.run_until(lambda: self.engine.now >= target,
                             timeout=duration + timeout_slack,
                             horizon=target)

    async def _yield_io(self) -> bool:
        """Let the loop run transport callbacks; True if any injected."""
        before = self._activity
        for _ in range(2):
            await asyncio.sleep(0)
        return self._activity != before

    # ------------------------------------------------------------------
    # wall mode: wall clock owns time
    # ------------------------------------------------------------------
    def start(self) -> "asyncio.Task[None]":
        """Launch the wall-clock pump task (idempotent per driver)."""
        if self.mode != "wall":
            raise RuntimeError("start() is a wall-mode API; fast mode "
                               "runs via run_until()")
        if self._task is not None and not self._task.done():
            return self._task
        self._stopped = False
        self._loop = asyncio.get_running_loop()
        self._wall0, self._sim0 = self._loop.time(), self.engine.now
        self._task = self._loop.create_task(self._wall_loop(),
                                            name="gateway-engine")
        return self._task

    async def stop(self) -> None:
        """Stop the wall-clock pump and wait for it to exit."""
        self._stopped = True
        self._wake()
        if self._task is not None:
            await self._task
            self._task = None

    def _sim_now(self) -> float:
        """The wall clock, read on the simulated time axis."""
        return (self._sim0
                + (self._loop.time() - self._wall0) * self.time_scale)

    def _run_due(self, on_error: Callable[[Exception], None]) -> None:
        """Run every engine event the wall clock has reached."""
        self._running = True
        self._on_error = on_error
        try:
            self.engine.run(until=max(self._sim_now(), self.engine.now))
        finally:
            self._running = False
            self._on_error = None

    def _report(self, exc: Exception) -> None:
        """A callback failed with no connection to blame: tell the
        loop's exception handler and keep serving."""
        self._loop.call_exception_handler({
            "message": "gateway: injected engine callback failed",
            "exception": exc})

    async def _wall_loop(self) -> None:
        engine = self.engine
        while not self._stopped:
            self._run_due(self._report)
            nxt = engine.next_event_time()
            if nxt is None:
                # no timers pending: sleep until an injection wakes us
                # (bounded, so shutdown and drift checks stay prompt)
                self._armed = float("inf")
                await self._wait_wake(0.2)
                continue
            self._armed = nxt
            delay = (nxt - self._sim_now()) / self.time_scale
            if delay <= 0:
                await asyncio.sleep(0)   # due now — just yield for IO
            else:
                await self._wait_wake(min(delay, 0.2))

    # ------------------------------------------------------------------
    # Wakeups: a loop.call_later deadline racing socket activity
    # ------------------------------------------------------------------
    def _wake(self) -> None:
        woke = False
        for waiter in self._waiters:
            if not waiter.done():
                waiter.set_result(True)
                woke = True
        del self._waiters[:]
        if not woke:
            self._wake_pending = True

    async def _wait_wake(self, timeout: float) -> bool:
        """Sleep until woken by socket activity (True) or until the
        ``loop.call_later`` deadline fires (False)."""
        if self._wake_pending:
            self._wake_pending = False
            await asyncio.sleep(0)
            return True
        loop = asyncio.get_running_loop()
        waiter: "asyncio.Future[bool]" = loop.create_future()
        self._waiters.append(waiter)
        handle = loop.call_later(timeout, self._expire, waiter)
        try:
            return await waiter
        finally:
            handle.cancel()
            if waiter in self._waiters:
                self._waiters.remove(waiter)

    @staticmethod
    def _expire(waiter: "asyncio.Future[bool]") -> None:
        if not waiter.done():
            waiter.set_result(False)
