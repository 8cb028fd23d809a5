"""Drive per-region shard engines through conservative-lookahead rounds.

One barrier round loop with one grant rule (documented in
docs/ARCHITECTURE.md):

1. **ent** — each region's earliest possible activity: the minimum of
   its next local event time and the arrival times of frames already
   relayed toward it.  ``floor`` is the minimum over all regions.
2. **equal windows** — every region is granted
   ``floor + lookahead(region)`` (:func:`grant_round`, with the safety
   argument).  All windows open at the same instant and are one delay
   wide, so the regions with work run *side by side* instead of
   handing one wide window back and forth.
3. **step the work set** — only regions that can actually act
   (``ent <= grant``) are stepped; their pending frames are injected at
   their exact recorded arrival times, they run to their grant, and
   they return the frames they emitted.  Idle regions are not
   contacted at all — a worker's boundary-round count is the number of
   grants it consumes, not the number of global barriers — and their
   clocks merely lag until a frame or a local event brings them back.
4. **relay** — emitted frames are routed to the far region of their
   link and held until that region is next stepped, sorted by arrival
   time (stable on emission order) so injection order is identical
   in-process and across worker processes.

Rounds repeat until every engine is drained and no frames are in
flight (or the ``until`` cap is reached).  In process mode the
coordinator hosts the first region itself and every other region runs
in a persistent worker process, built from the same pure-data
:class:`~repro.shard.plan.RegionSpec` + workload payloads the sweeps
subsystem established for jobs (and honouring its
``REPRO_START_METHOD``), because a shard keeps live engine state
between rounds and so cannot be a fire-and-forget pool job.  A step
sends to every worker before it receives from any, and the hosted
region runs in between, so it steps while the workers do; the closing
finish follows the same rule, so every region renders its rows and
trace side by side.  Inside a
``multiprocessing`` pool worker (daemonic processes cannot have
children) the coordinator transparently falls back to in-process
execution — same rounds, same traces.

There is one relay path.  A non-empty frame batch crosses a worker
pipe as one :func:`~repro.shard.framing.pack_frames` buffer, sent with
``Connection.send_bytes`` right after the control message that
announces its length — ``("step", horizon, nbytes)`` one way,
``("stepped", nbytes, clock, next)`` the other; ``nbytes == 0`` means
no buffer follows.  The payloads inside are already the codec's bytes
(encoding at the sending half is the runtime check that no live object
crosses a cut), so the coordinator unpacks headers to route and
forwards payloads untouched.  Inline rounds hand the frame lists over
directly and are the transport-free reference the process path is
pinned against.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..sweeps.runner import available_cpu_count, resolve_start_method
from .engine import BoundaryFrame, ShardEngine
from .framing import pack_frames, unpack_frames
from .plan import RegionPlan

MODES = ("auto", "inline", "process")


class ShardRunError(RuntimeError):
    """A shard worker failed or the round loop did not converge."""


@dataclass
class ShardRunResult:
    """Merged outcome of one sharded run."""

    rows: List[Dict[str, Any]]          # first-delivery rows, merged+sorted
    node_stats: List[Dict[str, Any]]    # per-node stats, merged+sorted
    shards: List[Dict[str, Any]]        # per-shard summaries, region order
    traces: List[str] = field(default_factory=list)
    rounds: int = 0
    frames_relayed: int = 0
    mode: str = "inline"
    # boundary rounds actually executed, per region: an idle region
    # sits out a round entirely, so these count the per-worker
    # synchronization cost the global `rounds` barrier count does not
    region_steps: List[int] = field(default_factory=list)
    #: grant/floor computations the coordinator performed: one per
    #: round
    grants: int = 0
    #: non-empty frame batches handed to regions (the coordinator →
    #: region direction) — the unit the worker pipes actually move
    relay_batches: int = 0
    #: packed payload bytes moved over worker pipes, both directions;
    #: 0 inline (frame lists are handed over directly, nothing is
    #: packed)
    relay_bytes: int = 0

    @property
    def events(self) -> int:
        """Total engine events across all shards."""
        return sum(shard["events"] for shard in self.shards)

    @property
    def steps(self) -> int:
        """Total boundary rounds executed across all regions."""
        return sum(self.region_steps)


class _InlineShard:
    """A region engine in the coordinator's own process (every region
    inline, the first one in process mode); it fails as a worker does,
    with a :class:`ShardRunError` naming the region."""

    #: inline rounds hand frame lists over directly — no channel, no
    #: bytes (kept as an attribute so the merge code is proxy-agnostic)
    relay_bytes = 0

    def __init__(self, region, workload, seed) -> None:
        self.region = region.region
        self._build = (region, workload, seed)

    def _run(self, operation, *args):
        try:
            return operation(*args)
        except Exception as exc:
            raise ShardRunError(f"shard {self.region} failed: "
                                f"{type(exc).__name__}: {exc}") from exc

    def handshake(self) -> Optional[float]:
        # built here rather than in __init__: in process mode the
        # workers are started by then and build their regions meanwhile
        self._shard = self._run(ShardEngine, *self._build)
        return self._shard.next_event_time()

    def send_step(self, horizon: Optional[float],
                  frames: List[BoundaryFrame]) -> None:
        self._pending = (horizon, frames)

    def recv_step(self) -> Tuple[List[BoundaryFrame], float, Optional[float]]:
        horizon, frames = self._pending
        self._run(self._shard.inject, frames)
        out = self._run(self._shard.run_to, horizon)
        return out, self._shard.clock, self._shard.next_event_time()

    def send_finish(self, want_rows: bool, want_traces: bool) -> None:
        self._pending = (want_rows, want_traces)

    def recv_finish(self):
        return self._run(self._shard.finish, *self._pending)

    def close(self) -> None:
        pass


def _shard_worker(conn, region, workload, seed) -> None:
    """Worker-process loop: build once, then step on command.

    Module-level so ``spawn`` can import it by reference; everything it
    receives is pure data.
    """
    try:
        shard = ShardEngine(region, workload, seed=seed)
        conn.send(("ready", shard.next_event_time()))
        while True:
            message = conn.recv()
            if message[0] == "step":
                _kind, horizon, nbytes = message
                shard.inject(unpack_frames(conn.recv_bytes())
                             if nbytes else [])
                out = shard.run_to(horizon)
                buf = pack_frames(out) if out else b""
                conn.send(("stepped", len(buf), shard.clock,
                           shard.next_event_time()))
                if buf:
                    conn.send_bytes(buf)
            elif message[0] == "finish":
                _kind, want_rows, want_traces = message
                conn.send(("done",) + shard.finish(want_rows, want_traces))
                return
            elif message[0] == "stop":
                return
            else:  # pragma: no cover - protocol misuse
                raise ShardRunError(f"unknown command {message[0]!r}")
    except Exception as exc:
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


class _ProcessShard:
    """A region engine in a dedicated persistent worker process."""

    def __init__(self, context, region, workload, seed) -> None:
        self.region = region.region
        self.relay_bytes = 0
        # a command was sent whose whole reply has not been read yet
        self._owes_reply = False
        self._conn, child_conn = context.Pipe()
        self._proc = context.Process(
            target=_shard_worker,
            args=(child_conn, region, workload, seed),
            name=f"shard-{region.region}", daemon=True)
        self._proc.start()
        child_conn.close()

    def _pipe(self, operation, *args):
        """One pipe operation; a worker that is gone — before a reply,
        between a header and its byte buffer, or before a command could
        be written — is a :class:`ShardRunError` naming the region."""
        try:
            return operation(*args)
        except (EOFError, OSError) as exc:
            raise ShardRunError(f"shard {self.region} worker died "
                                f"({type(exc).__name__})") from exc

    def _recv(self, expected: str):
        message = self._pipe(self._conn.recv)
        if message[0] == "error":
            raise ShardRunError(f"shard {self.region} failed: {message[1]}")
        if message[0] != expected:  # pragma: no cover - protocol misuse
            raise ShardRunError(
                f"shard {self.region}: expected {expected!r} reply, "
                f"got {message[0]!r}")
        return message[1:]

    def handshake(self) -> Optional[float]:
        return self._recv("ready")[0]

    def send_step(self, horizon: Optional[float],
                  frames: List[BoundaryFrame]) -> None:
        buf = pack_frames(frames) if frames else b""
        self.relay_bytes += len(buf)
        self._owes_reply = True
        self._pipe(self._conn.send, ("step", horizon, len(buf)))
        if buf:
            self._pipe(self._conn.send_bytes, buf)

    def recv_step(self) -> Tuple[List[BoundaryFrame], float, Optional[float]]:
        nbytes, clock, nxt = self._recv("stepped")
        frames = (unpack_frames(self._pipe(self._conn.recv_bytes))
                  if nbytes else [])
        self.relay_bytes += nbytes
        self._owes_reply = False
        return frames, clock, nxt

    def send_finish(self, want_rows: bool, want_traces: bool) -> None:
        self._owes_reply = True
        self._pipe(self._conn.send, ("finish", want_rows, want_traces))

    def recv_finish(self):
        reply = self._recv("done")
        self._owes_reply = False
        return reply

    def close(self) -> None:
        # a forked worker inherits the coordinator's end of its own
        # pipe, so closing that end never wakes it: not in recv(), which
        # takes an explicit stop, and not in a send() of a reply larger
        # than the pipe buffer, which never sees EPIPE.  A worker that
        # still owes a reply (the run failed between a command and its
        # answer) is stopped at once instead of waiting out the join.
        if self._owes_reply:
            self._proc.terminate()
        else:
            try:
                self._conn.send(("stop",))
            except OSError:
                pass    # the worker already exited (finished or failed)
        self._conn.close()
        self._proc.join(timeout=10)
        if self._proc.is_alive():  # pragma: no cover - hung worker
            self._proc.terminate()
            self._proc.join(timeout=5)


class _LoopState:
    """The round loop's mutable bookkeeping."""

    __slots__ = ("nexts", "clocks", "inboxes", "region_steps", "rounds",
                 "grants", "frames_relayed", "relay_batches")

    def __init__(self, nexts: List[Optional[float]]) -> None:
        count = len(nexts)
        self.nexts = nexts
        self.clocks = [0.0] * count
        self.inboxes: List[List[BoundaryFrame]] = [[] for _ in range(count)]
        self.region_steps = [0] * count
        self.rounds = 0
        self.grants = 0
        self.frames_relayed = 0
        self.relay_batches = 0


def grant_round(floor: float, ents: Sequence[float],
                lookaheads: Sequence[float], until: Optional[float] = None
                ) -> Tuple[List[float], List[int]]:
    """The round rule: ``(horizons, working)`` for one barrier round.

    ``ents[r]`` is region ``r``'s earliest possible activity (``inf``
    when it is drained), ``floor`` their finite minimum and
    ``lookaheads[r]`` the region's minimum cut-link delay (``inf``
    without a cut).  Every region's window is
    ``[floor, floor + lookaheads[r])``, clamped to ``until``; the work
    set is the regions whose activity falls inside their window.

    Safe: every frame not yet relayed is emitted at or after ``floor``
    and reaches ``r`` no sooner than ``floor + lookaheads[r]``.  Live:
    a region holding ``ent == floor`` is always in the work set, since
    lookaheads are positive.  A drained region is never in it — tested
    on ``ent`` itself, because without a cut its horizon is ``inf`` too
    and ``inf <= inf`` holds.
    """
    horizons = []
    working = []
    for index, ent in enumerate(ents):
        horizon = floor + lookaheads[index]
        if until is not None and horizon > until:
            horizon = until
        horizons.append(horizon)
        if ent <= horizon and not math.isinf(ent):
            working.append(index)
    return horizons, working


class ShardCoordinator:
    """Run a :class:`RegionPlan` to completion, relaying boundary frames.

    Parameters
    ----------
    plan, workload, seed:
        The pure-data description every region is built from.
    mode:
        ``"process"`` (a persistent worker per region but the first,
        which runs here),
        ``"inline"`` (all regions in this process, stepped round-robin),
        or ``"auto"`` — process when there is real parallelism to win
        and spawning children is possible, inline otherwise (single
        region, single usable CPU, or running inside a daemonic pool
        worker).
    start_method:
        ``multiprocessing`` start method for process mode; defaults to
        ``REPRO_START_METHOD`` (the sweeps knob), then the platform
        default.
    """

    def __init__(self, plan: RegionPlan, workload: Dict[str, Any],
                 seed: int = 0, mode: str = "auto",
                 start_method: Optional[str] = None,
                 max_rounds: int = 1_000_000) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; known: "
                             f"{', '.join(MODES)}")
        self.plan = plan
        self.workload = workload
        self.seed = seed
        self.max_rounds = max_rounds
        self.start_method = resolve_start_method(start_method)
        if mode == "auto":
            # process mode only pays when there is real parallelism to
            # win: multiple regions, more than one usable CPU, and the
            # ability to spawn children at all (daemonic pool workers
            # cannot).
            # Inline rounds are not a degraded fallback — on a single
            # core they are the *faster* configuration (no IPC, and the
            # per-region heaps already beat one monolithic heap).
            daemonic = multiprocessing.current_process().daemon
            mode = ("process" if len(plan.regions) > 1
                    and available_cpu_count() > 1
                    and not daemonic else "inline")
        self.mode = mode

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, collect_rows: bool = True,
            collect_traces: bool = True) -> ShardRunResult:
        """Execute rounds until quiescence (or ``until``), then merge.

        ``collect_rows`` / ``collect_traces`` gate the expensive result
        payloads: a million-delivery scale run only needs the per-shard
        summaries, not a million row dicts or megabytes of trace text.
        """
        # built one by one inside the try: if starting worker k fails,
        # the finally still closes workers 0..k-1
        proxies: List[Any] = []
        try:
            for region in self.plan.regions:
                proxies.append(self._make_proxy(region))
            st = _LoopState([p.handshake() for p in proxies])
            self._run_barrier(proxies, until, st)
            self._cap_advance(proxies, until, st)
            return self._merge(proxies, st, collect_rows, collect_traces)
        finally:
            for proxy in proxies:
                proxy.close()

    def _make_proxy(self, region):
        # process mode hosts the first region here and starts a worker
        # for every other one
        if self.mode == "inline" or region.region == 0:
            return _InlineShard(region, self.workload, self.seed)
        context = multiprocessing.get_context(self.start_method)
        return _ProcessShard(context, region, self.workload, self.seed)

    # ------------------------------------------------------------------
    def _run_barrier(self, proxies, until, st: _LoopState) -> None:
        """One grant computation, one work set, one
        send-all-then-recv-all step per round."""
        plan = self.plan
        count = len(proxies)
        lookaheads = [region.lookahead for region in plan.regions]
        while True:
            ents = []
            for index in range(count):
                nxt = st.nexts[index]
                ent = nxt if nxt is not None else math.inf
                for frame in st.inboxes[index]:
                    if frame[0] < ent:
                        ent = frame[0]
                ents.append(ent)
            floor = min(ents, default=math.inf)
            if math.isinf(floor):
                break
            if until is not None and floor > until:
                break
            st.rounds += 1
            st.grants += 1
            if st.rounds > self.max_rounds:
                raise ShardRunError(self._livelock_report(
                    floor, ents, st.clocks, st.nexts, st.inboxes))
            horizons, working = grant_round(floor, ents, lookaheads, until)
            # frames injected in arrival order (stable on emission order)
            for index in working:
                st.inboxes[index].sort(key=lambda frame: frame[0])
            outputs = self._step_some(proxies, working, horizons,
                                      st.inboxes, st.clocks, st)
            # stepped regions consumed their inboxes at send time; clear
            # them all *before* relaying, or a frame relayed toward a
            # region stepped later in the same round would be wiped out
            for index, (out, clock, nxt) in zip(working, outputs):
                st.region_steps[index] += 1
                st.clocks[index] = clock
                st.nexts[index] = nxt
                st.inboxes[index] = []
            for index, (out, _clock, _next) in zip(working, outputs):
                self._relay(plan, index, out, st)

    # ------------------------------------------------------------------
    def _relay(self, plan, index, out, st: _LoopState) -> None:
        """Route one region's emitted frames to the far side of their
        links; they wait in the destination inbox until its next step."""
        for frame in out:
            pair = plan.boundary_regions[frame[1]]
            dest = pair[1] if pair[0] == index else pair[0]
            st.inboxes[dest].append(frame)
            st.frames_relayed += 1

    def _cap_advance(self, proxies, until, st: _LoopState) -> None:
        if until is None or not any(clock < until for clock in st.clocks):
            return
        # advance every engine to the cap (parity with an unsharded
        # run(until=...), whose clock always ends at the cap).
        # Leftover frames arriving beyond the cap are injected but
        # stay undelivered, exactly as events beyond the cap stay
        # unprocessed — and under the lookahead invariant this
        # cap-advance can process no event at all, so it can emit
        # no frame: every region's earliest activity already lies
        # strictly beyond ``until`` (that is why the round loop
        # ended).  A frame emitted here would mean a region ran
        # past a grant, so it is a protocol violation, not a frame
        # to relay.
        count = len(proxies)
        for inbox in st.inboxes:
            inbox.sort(key=lambda frame: frame[0])
        outputs = self._step_some(proxies, list(range(count)),
                                  [until] * count, st.inboxes, st.clocks,
                                  st)
        st.clocks[:] = [clock for _out, clock, _next in outputs]
        stray = [(self.plan.regions[index].region, len(out))
                 for index, (out, _clock, _next) in enumerate(outputs)
                 if out]
        if stray:
            raise ShardRunError(
                f"cap-advance to until={until!r} emitted boundary "
                f"frames from region(s) "
                f"{', '.join(f'{r} ({n} frame(s))' for r, n in stray)}: "
                f"the lookahead invariant guarantees no event can "
                f"execute past the final floor")

    def _livelock_report(self, floor, ents, clocks, nexts, inboxes) -> str:
        """The max_rounds diagnosis: who is stuck, on what."""
        lines = [f"no convergence after {self.max_rounds} rounds "
                 f"(floor={floor!r}); per-region state:"]
        for index, region in enumerate(self.plan.regions):
            lines.append(
                f"  region {region.region}: clock={clocks[index]!r} "
                f"next_event={nexts[index]!r} ent={ents[index]!r} "
                f"inbox={len(inboxes[index])} frame(s)"
                + (f" (earliest arrival="
                   f"{min(f[0] for f in inboxes[index])!r})"
                   if inboxes[index] else ""))
        return "\n".join(lines)

    def _step_some(self, proxies, working, horizons, inboxes, clocks,
                   st: _LoopState):
        """Step the given regions concurrently and collect their
        replies (in ``working`` order).

        The horizon a region is asked to run to never trails its own
        clock (grants are monotone, but ``max`` keeps the engine's
        run-to-the-past failure mode structurally impossible), and
        ``inf`` grants — regions nothing can reach — run to quiescence.
        """
        targets = []
        for index in working:
            horizon = horizons[index]
            targets.append(None if math.isinf(horizon)
                           else max(horizon, clocks[index]))
        ordered = [(proxies[index], target, inboxes[index])
                   for index, target in zip(working, targets)]
        for proxy, target, inbox in ordered:
            if inbox:
                st.relay_batches += 1
            proxy.send_step(target, inbox)
        return [proxy.recv_step() for proxy, _target, _inbox in ordered]

    def _merge(self, proxies, st: _LoopState, collect_rows,
               collect_traces) -> ShardRunResult:
        rows: List[Dict[str, Any]] = []
        node_stats: List[Dict[str, Any]] = []
        summaries: List[Dict[str, Any]] = []
        traces: List[str] = []
        relay_bytes = 0
        # every worker renders its results while the hosted region
        # renders its own: send all, then receive, as a step does
        for proxy in proxies:
            proxy.send_finish(collect_rows, collect_traces)
        for proxy in proxies:
            shard_rows, shard_stats, summary, trace = proxy.recv_finish()
            rows.extend(shard_rows)
            node_stats.extend(shard_stats)
            summaries.append(summary)
            relay_bytes += proxy.relay_bytes
            if collect_traces:
                traces.append(trace)
        rows.sort(key=lambda row: (row["node"], row["origin"], row["seq"]))
        node_stats.sort(key=lambda row: row["node"])
        return ShardRunResult(rows=rows, node_stats=node_stats,
                              shards=summaries, traces=traces,
                              rounds=st.rounds,
                              frames_relayed=st.frames_relayed,
                              mode=self.mode, region_steps=st.region_steps,
                              grants=st.grants,
                              relay_batches=st.relay_batches,
                              relay_bytes=relay_bytes)


def run_sharded(plan: RegionPlan, workload: Dict[str, Any], seed: int = 0,
                mode: str = "auto", until: Optional[float] = None,
                collect_rows: bool = True,
                collect_traces: bool = True) -> ShardRunResult:
    """One-call sharded execution of a plan + workload.

    Always deterministic (same plan + workload + seed ⇒ identical
    per-shard traces, any mode), and every frame is delivered at the
    exact timestamp the unsharded link would have computed.  Exact *equivalence* with an unsharded run additionally
    requires the workload to be tie-free: at an exactly shared float
    timestamp an injected boundary frame executes after local events,
    where one engine may have interleaved them — see the lookahead
    section of docs/ARCHITECTURE.md.  Order-insensitive results
    (delivery counts, reach sets) are equivalent regardless.
    """
    coordinator = ShardCoordinator(plan, workload, seed=seed, mode=mode)
    return coordinator.run(until=until, collect_rows=collect_rows,
                           collect_traces=collect_traces)
