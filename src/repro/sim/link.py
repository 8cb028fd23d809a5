"""Simulated physical links.

A :class:`Link` joins exactly two :class:`LinkEnd` objects.  Each direction
has a FIFO transmit queue, a serialization rate (bits/s), a propagation
delay, and a loss model.  Payloads are opaque Python objects accompanied by
an explicit wire size in bytes — the simulator never serializes for real.

One path serves every frame (:meth:`Link.transmit`): its fate — start,
shaper wait, serialization end, loss, corruption, jitter, order clamp and
reorder hold — is decided when it is sent, and the only engine event it
costs is its arrival.  Each direction draws from its own named streams,
so a draw at send has the value a draw at serialization end would have.
A change of a link's parameters reaches the frames sent after it.

Loss models are strategy objects so experiments can swap a fixed loss rate
for a bursty Gilbert–Elliott process without touching the link code
(mechanism vs policy, as the paper prescribes for every component).
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from .engine import Engine, Event
from .trace import Tracer

ReceiveCallback = Callable[[Any, int], None]


class LossModel:
    """Decides per-frame whether the medium corrupts/drops the frame.

    ``lossless`` marks models that never drop *and never draw from the
    RNG*: links skip the per-frame ``should_drop`` call (and never
    materialize their lazy RNG) for such models.
    """

    __slots__ = ()

    lossless = False

    def should_drop(self, rng: random.Random, now: float,
                    direction: int = 0) -> bool:
        """Return True to drop the frame currently being delivered.

        ``rng`` is the stream of the frame's direction; a model with
        state keeps it per ``direction`` too, so the two directions'
        draws never depend on how their frames interleave."""
        raise NotImplementedError


class NoLoss(LossModel):
    """A perfect medium."""

    __slots__ = ()

    lossless = True

    def should_drop(self, rng: random.Random, now: float,
                    direction: int = 0) -> bool:
        return False


#: Shared stateless default — one instance for every lossless link.
_NO_LOSS = NoLoss()


class UniformLoss(LossModel):
    """Independent per-frame loss with fixed probability."""

    __slots__ = ("probability",)

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability must be in [0,1], got {probability}")
        self.probability = probability

    def should_drop(self, rng: random.Random, now: float,
                    direction: int = 0) -> bool:
        return rng.random() < self.probability


class GilbertElliott(LossModel):
    """Two-state bursty loss (good/bad channel), the classic wireless model.

    Parameters are per-frame transition probabilities and per-state loss
    rates.  Defaults give ~1% average loss with occasional deep fades.
    Each direction has its own channel state, as a
    :class:`BandwidthShaper` has its own bucket per direction.
    """

    __slots__ = ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad",
                 "_bad")

    def __init__(self, p_good_to_bad: float = 0.005, p_bad_to_good: float = 0.2,
                 loss_good: float = 0.001, loss_bad: float = 0.5) -> None:
        for name, p in (("p_good_to_bad", p_good_to_bad),
                        ("p_bad_to_good", p_bad_to_good),
                        ("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {p}")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._bad = [False, False]

    def should_drop(self, rng: random.Random, now: float,
                    direction: int = 0) -> bool:
        bad = self._bad[direction]
        if bad:
            if rng.random() < self.p_bad_to_good:
                bad = False
        else:
            if rng.random() < self.p_good_to_bad:
                bad = True
        self._bad[direction] = bad
        rate = self.loss_bad if bad else self.loss_good
        return rng.random() < rate


# ----------------------------------------------------------------------
# Composable link conditions: jitter, shaping, corruption, reordering.
#
# Like the loss models above, each condition is a strategy object; the
# link only supplies mechanism (where in the frame path each applies)
# and the deterministic per-purpose RNG streams.  A link with
# ``conditions=None`` delivers byte-for-byte what it always has — the
# golden-trace contract.
# ----------------------------------------------------------------------
class CorruptedFrame:
    """What the far end receives when the medium damaged a frame in flight.

    ``bytes`` payloads are damaged literally (random byte XORs), so any
    checksum over them catches the damage; every other payload is a
    live Python object the simulator cannot bit-flip, so it is delivered
    wrapped in this sentinel instead.  Receiving stacks treat the
    sentinel as a failed integrity check: count the frame and drop it,
    never hand the payload up.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: Any) -> None:
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CorruptedFrame {self.payload!r}>"


class JitterModel:
    """Per-frame extra propagation delay, sampled when the frame is sent.

    With ``preserve_order`` (the default) deliveries are clamped to the
    latest delivery already scheduled in that direction, so jitter
    stretches gaps but never reorders — variable queueing on a FIFO
    path.  ``preserve_order=False`` lets large samples overtake small
    ones: jitter then doubles as a reordering process.
    """

    __slots__ = ("preserve_order",)

    def __init__(self, preserve_order: bool = True) -> None:
        self.preserve_order = bool(preserve_order)

    def sample(self, rng: random.Random) -> float:
        """A non-negative, finite delay increment in seconds."""
        raise NotImplementedError


class UniformJitter(JitterModel):
    """Uniform jitter in ``[0, amplitude]`` seconds."""

    __slots__ = ("amplitude",)

    def __init__(self, amplitude: float, preserve_order: bool = True) -> None:
        if not (math.isfinite(amplitude) and amplitude >= 0.0):
            raise ValueError(f"jitter amplitude must be finite and >= 0, "
                             f"got {amplitude}")
        super().__init__(preserve_order)
        self.amplitude = float(amplitude)

    def sample(self, rng: random.Random) -> float:
        return rng.random() * self.amplitude


class NormalJitter(JitterModel):
    """Gaussian jitter clamped into ``[0, cap]`` seconds.

    The clamp is what makes the model usable on a simulated wire: a
    gauss sample is unbounded on both sides, and a negative increment
    would deliver a frame before it finished propagating.  ``cap``
    defaults to ``mean + 4*stddev``.
    """

    __slots__ = ("mean", "stddev", "cap")

    def __init__(self, mean: float, stddev: float,
                 cap: Optional[float] = None,
                 preserve_order: bool = True) -> None:
        if not (math.isfinite(mean) and mean >= 0.0):
            raise ValueError(f"jitter mean must be finite and >= 0, got {mean}")
        if not (math.isfinite(stddev) and stddev >= 0.0):
            raise ValueError(f"jitter stddev must be finite and >= 0, "
                             f"got {stddev}")
        if cap is None:
            cap = mean + 4.0 * stddev
        if not (math.isfinite(cap) and cap >= 0.0):
            raise ValueError(f"jitter cap must be finite and >= 0, got {cap}")
        super().__init__(preserve_order)
        self.mean = float(mean)
        self.stddev = float(stddev)
        self.cap = float(cap)

    def sample(self, rng: random.Random) -> float:
        value = rng.gauss(self.mean, self.stddev)
        if value < 0.0:
            return 0.0
        if value > self.cap:
            return self.cap
        return value


class BandwidthShaper:
    """A token bucket throttling each direction to ``rate_bps``.

    Tokens are bytes, refilled at ``rate_bps / 8`` per second and capped
    at ``burst_bytes``.  A frame whose size exceeds the available tokens
    waits (before serialization, so queue order is preserved) exactly
    until the deficit refills — over any window the wire carries at most
    ``burst_bytes + rate * window`` plus one in-flight frame.  State is
    per direction; the model is deterministic (no RNG).
    """

    __slots__ = ("rate_bps", "burst_bytes", "_tokens", "_stamp")

    def __init__(self, rate_bps: float,
                 burst_bytes: Optional[float] = None) -> None:
        if not (math.isfinite(rate_bps) and rate_bps > 0):
            raise ValueError(f"shaper rate must be finite and positive, "
                             f"got {rate_bps}")
        if burst_bytes is None:
            # default: 10 ms worth of rate, at least one MTU
            burst_bytes = max(1500.0, rate_bps * 0.01 / 8.0)
        if not (math.isfinite(burst_bytes) and burst_bytes >= 1.0):
            raise ValueError(f"shaper burst must be finite and >= 1 byte, "
                             f"got {burst_bytes}")
        self.rate_bps = float(rate_bps)
        self.burst_bytes = float(burst_bytes)
        self._tokens = [self.burst_bytes, self.burst_bytes]
        self._stamp = [0.0, 0.0]

    def reserve(self, direction: int, size_bytes: int, now: float) -> float:
        """Spend ``size_bytes`` of tokens; returns the wait in seconds
        before the frame may start serializing (0 when the bucket has
        enough)."""
        rate = self.rate_bps / 8.0
        tokens = min(self.burst_bytes,
                     self._tokens[direction]
                     + (now - self._stamp[direction]) * rate)
        if tokens >= size_bytes:
            self._tokens[direction] = tokens - size_bytes
            self._stamp[direction] = now
            return 0.0
        wait = (size_bytes - tokens) / rate
        self._tokens[direction] = 0.0
        self._stamp[direction] = now + wait
        return wait


class CorruptionModel:
    """Independent per-frame payload corruption with fixed probability.

    A corrupted ``bytes`` payload gets 1..``max_flips`` random bytes
    XORed with a non-zero mask (every flip really changes the byte, so
    a CRC sees it); any other payload is wrapped in
    :class:`CorruptedFrame`.  The frame still *arrives* — detection and
    the drop happen in the receiving stack, which is the whole point:
    corruption exercises integrity checks, not the loss path.
    """

    __slots__ = ("probability", "max_flips")

    def __init__(self, probability: float, max_flips: int = 3) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"corruption probability must be in [0,1], "
                             f"got {probability}")
        if max_flips < 1:
            raise ValueError(f"max_flips must be >= 1, got {max_flips}")
        self.probability = float(probability)
        self.max_flips = int(max_flips)

    def should_corrupt(self, rng: random.Random) -> bool:
        return rng.random() < self.probability

    def corrupt(self, rng: random.Random, payload: Any) -> Any:
        if isinstance(payload, (bytes, bytearray)) and len(payload) > 0:
            data = bytearray(payload)
            flips = 1 + rng.randrange(self.max_flips)
            for _ in range(flips):
                data[rng.randrange(len(data))] ^= 1 + rng.randrange(255)
            return bytes(data)
        return CorruptedFrame(payload)


class ReorderModel:
    """Bounded-displacement reordering of in-flight frames.

    With probability ``probability`` a frame entering the wire is parked
    while up to ``depth`` later frames overtake it, then released (at the
    latest ``max_hold`` seconds after its serialization end, so a lull
    cannot strand it).  At most one frame per direction is parked at a
    time, which gives the invariant EFCP's sequencing tests pin: no
    frame's delivery position differs from its send position by more
    than ``depth``.
    """

    __slots__ = ("probability", "depth", "max_hold")

    def __init__(self, probability: float, depth: int = 3,
                 max_hold: float = 0.05) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"reorder probability must be in [0,1], "
                             f"got {probability}")
        if depth < 1:
            raise ValueError(f"reorder depth must be >= 1, got {depth}")
        if not (math.isfinite(max_hold) and max_hold >= 0.0):
            raise ValueError(f"max_hold must be finite and >= 0, "
                             f"got {max_hold}")
        self.probability = float(probability)
        self.depth = int(depth)
        self.max_hold = float(max_hold)

    def should_displace(self, rng: random.Random) -> bool:
        return rng.random() < self.probability


class _HeldFrame:
    """One frame a :class:`ReorderModel` parked: it arrives ``delay``
    after ``release``, which the send of a later frame may move
    earlier."""

    __slots__ = ("payload", "size", "release", "remaining", "delay",
                 "arrival")

    def __init__(self, payload: Any, size: int, release: float,
                 remaining: int, delay: float) -> None:
        self.payload = payload
        self.size = size
        self.release = release
        self.remaining = remaining
        self.delay = delay
        self.arrival: Optional[Event] = None


#: A sent frame as its direction keeps it: ``(serialization end, the
#: arrival to cancel if the link fails first or None, payload, size)``.
_Record = Tuple[float, Optional[Event], Any, int]

#: A stream's place in a direction's draw list, and its name per
#: direction (see :meth:`Link._stream`).
_LOSS, _CORRUPT, _JITTER, _REORDER = range(4)
_STREAM_NAMES = (("", "corrupt", "jitter", "reorder"),
                 ("loss:1", "corrupt:1", "jitter:1", "reorder:1"))


class LinkConditions:
    """The composable impairment bundle one link carries.

    Any subset of the four slots may be set; ``None`` slots cost
    nothing on the frame path.  Bundles are treated as immutable by the
    link — injectors swap whole :class:`LinkConditions` objects (via
    :meth:`replace`) rather than mutating one in place, so saving and
    restoring a link's conditions is a plain reference copy.
    """

    __slots__ = ("jitter", "shaper", "corruption", "reorder")

    def __init__(self, jitter: Optional[JitterModel] = None,
                 shaper: Optional[BandwidthShaper] = None,
                 corruption: Optional[CorruptionModel] = None,
                 reorder: Optional[ReorderModel] = None) -> None:
        for value, kind, label in ((jitter, JitterModel, "jitter"),
                                   (shaper, BandwidthShaper, "shaper"),
                                   (corruption, CorruptionModel, "corruption"),
                                   (reorder, ReorderModel, "reorder")):
            if value is not None and not isinstance(value, kind):
                raise TypeError(f"{label} must be a {kind.__name__} or None, "
                                f"got {type(value).__name__}")
        self.jitter = jitter
        self.shaper = shaper
        self.corruption = corruption
        self.reorder = reorder

    def fresh(self) -> "LinkConditions":
        """A copy safe to install on another link.

        Stateless models (jitter, corruption, reorder policy) are
        shared; the token-bucket shaper carries per-link bucket state
        and is re-instantiated.  :meth:`~repro.sim.network.Network.connect`
        installs ``conditions.fresh()`` so one bundle passed to many
        links couples none of them.
        """
        shaper = (BandwidthShaper(self.shaper.rate_bps,
                                  self.shaper.burst_bytes)
                  if self.shaper is not None else None)
        return LinkConditions(self.jitter, shaper, self.corruption,
                              self.reorder)

    def replace(self, **changes: Any) -> "LinkConditions":
        """A new bundle with the named slots replaced."""
        fields = {"jitter": self.jitter, "shaper": self.shaper,
                  "corruption": self.corruption, "reorder": self.reorder}
        for key in changes:
            if key not in fields:
                raise TypeError(f"unknown condition slot {key!r}")
        fields.update(changes)
        return LinkConditions(**fields)

    @classmethod
    def from_dict(cls, value: Dict[str, Any]) -> Optional["LinkConditions"]:
        """Build a bundle from the JSON-safe spec form.

        Grammar (every key optional / None):

        * ``jitter``: ``{"model": "uniform", "amplitude": s}`` or
          ``{"model": "normal", "mean": s, "stddev": s, "cap": s}``,
          either with ``"preserve_order": bool``;
        * ``shaper``: ``{"rate_bps": f, "burst_bytes": f}``;
        * ``corruption``: ``{"probability": p, "max_flips": n}``;
        * ``reorder``: ``{"probability": p, "depth": n, "max_hold": s}``.

        Returns None when every slot is absent — no bundle at all.
        """
        unknown = set(value) - {"jitter", "shaper", "corruption", "reorder"}
        if unknown:
            raise ValueError(f"unknown condition keys {sorted(unknown)}")
        jitter_spec = value.get("jitter")
        jitter: Optional[JitterModel] = None
        if jitter_spec is not None:
            spec = dict(jitter_spec)
            model = spec.pop("model", "uniform")
            if model == "uniform":
                jitter = UniformJitter(**spec)
            elif model == "normal":
                jitter = NormalJitter(**spec)
            else:
                raise ValueError(f"unknown jitter model {model!r}")
        shaper_spec = value.get("shaper")
        shaper = (BandwidthShaper(**shaper_spec)
                  if shaper_spec is not None else None)
        corruption_spec = value.get("corruption")
        corruption = (CorruptionModel(**corruption_spec)
                      if corruption_spec is not None else None)
        reorder_spec = value.get("reorder")
        reorder = (ReorderModel(**reorder_spec)
                   if reorder_spec is not None else None)
        if (jitter is None and shaper is None and corruption is None
                and reorder is None):
            return None
        return cls(jitter=jitter, shaper=shaper, corruption=corruption,
                   reorder=reorder)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        slots = [name for name in self.__slots__
                 if getattr(self, name) is not None]
        return f"<LinkConditions {'+'.join(slots) or 'empty'}>"


class LinkEnd:
    """One attachment point of a link.

    A stack element registers ``on_receive(payload, size_bytes)`` and calls
    :meth:`send` to transmit toward the peer end.
    """

    __slots__ = ("_link", "_index", "name", "_receiver")

    def __init__(self, link: "Link", index: int, name: str) -> None:
        self._link = link
        self._index = index
        self.name = name
        self._receiver: Optional[ReceiveCallback] = None

    @property
    def link(self) -> "Link":
        """The link this end belongs to."""
        return self._link

    @property
    def peer(self) -> "LinkEnd":
        """The opposite end of the link."""
        return self._link.ends[1 - self._index]

    def attach(self, receiver: ReceiveCallback) -> None:
        """Register the callback invoked for each delivered frame."""
        self._receiver = receiver

    def send(self, payload: Any, size_bytes: int) -> bool:
        """Enqueue a frame toward the peer; returns False if tail-dropped."""
        return self._link.transmit(self._index, payload, size_bytes)

    def deliver(self, payload: Any, size_bytes: int) -> None:
        """Hand a frame up the attached stack (no-op when nothing attached)."""
        if self._receiver is not None:
            self._receiver(payload, size_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LinkEnd {self.name}>"


class Link:
    """A full-duplex point-to-point link between two systems.

    Parameters
    ----------
    engine:
        The simulation engine providing the clock and timers.
    name:
        Human-readable identifier used in traces.
    capacity_bps:
        Serialization rate of each direction, bits per second.
    delay:
        One-way propagation delay, seconds.
    loss:
        A :class:`LossModel` shared by both directions.
    queue_limit:
        Maximum frames queued per direction awaiting serialization.
    tracer:
        Where the rare per-frame events are counted (drops, corruption).
        Delivered frames are not counted per frame: ``frames_delivered``
        is the count, and :class:`~repro.sim.network.Network` hands the
        tracer a read of it.
    rng / rng_factory:
        The PRNG feeding direction 0's loss draws, or a factory that
        builds it (``factory()``) when a frame first needs a draw — a
        lossless link never materializes one, which matters at 100k-link
        scale (a ``random.Random`` is ~2.5 KB of Mersenne state).  An
        explicit ``rng`` wins.  ``factory(suffix)`` builds every other
        stream (see :meth:`_stream`).
    conditions:
        Optional :class:`LinkConditions` bundle (jitter, shaping,
        corruption, reordering), also assignable at runtime via the
        :attr:`conditions` property — that is how the scenario fault
        injectors turn conditions on and off mid-run.

    ``capacity_bps``, ``delay``, ``loss`` and ``conditions`` may change
    mid-run; a change applies to the frames sent after it
    (:meth:`transmit`).
    """

    __slots__ = ("_engine", "name", "capacity_bps", "delay", "loss",
                 "queue_limit", "_rng", "_rng_factory", "_tracer",
                 "ends", "_queues", "_busy", "_up", "_observers",
                 "frames_sent", "frames_dropped_queue", "frames_dropped_loss",
                 "frames_delivered", "bytes_delivered", "frames_corrupted",
                 "_conditions", "_cond_rngs", "_draws", "_held",
                 "_last_delivery", "_rx_label")

    def __init__(self, engine: Engine, name: str, capacity_bps: float = 1e8,
                 delay: float = 0.001, loss: Optional[LossModel] = None,
                 queue_limit: int = 256, rng: Optional[random.Random] = None,
                 tracer: Optional[Tracer] = None,
                 rng_factory: Optional[Callable[..., random.Random]] = None,
                 conditions: Optional[LinkConditions] = None
                 ) -> None:
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bps}")
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self._engine = engine
        self.name = name
        self.capacity_bps = float(capacity_bps)
        self.delay = float(delay)
        self.loss = loss if loss is not None else _NO_LOSS
        self.queue_limit = queue_limit
        self._rng = rng
        self._rng_factory = rng_factory
        self._tracer = tracer
        self.ends: Tuple[LinkEnd, LinkEnd] = (
            LinkEnd(self, 0, f"{name}[0]"),
            LinkEnd(self, 1, f"{name}[1]"),
        )
        # per-direction service state (see transmit): the last frame's
        # record, or None when idle.  A direction's deque is made only
        # when a frame finds it busy: most links of a large plant never
        # queue, and two empty deques are ~1.2 KB per link.
        self._busy: List[Optional[_Record]] = [None, None]
        self._queues: List[Optional[Deque[_Record]]] = [None, None]
        self._up = True
        # observers notified with (link, up) on fail/repair — used by stacks
        # that model carrier detection (interface down when the link dies)
        self._observers: List[Callable[["Link", bool], None]] = []
        # statistics
        self.frames_sent = [0, 0]
        self.frames_dropped_queue = [0, 0]
        self.frames_dropped_loss = [0, 0]
        self.frames_delivered = [0, 0]
        self.bytes_delivered = [0, 0]
        self.frames_corrupted = [0, 0]
        # condition state, lazy: a clean link carries five None slots
        self._conditions: Optional[LinkConditions] = None
        self._cond_rngs: Optional[Dict[str, random.Random]] = None
        self._draws: Optional[Tuple[List[Optional[random.Random]],
                                    List[Optional[random.Random]]]] = None
        self._held: Optional[Tuple[Deque[_HeldFrame],
                                   Deque[_HeldFrame]]] = None
        self._last_delivery: Optional[List[float]] = None
        # the event label, precomputed: an f-string per scheduled event
        # is measurable at scale
        self._rx_label = f"{name}.rx"
        if conditions is not None:
            self.conditions = conditions

    # ------------------------------------------------------------------
    @property
    def up(self) -> bool:
        """False while the link is administratively failed."""
        return self._up

    @property
    def conditions(self) -> Optional[LinkConditions]:
        """The impairment bundle in effect, or None for a clean link."""
        return self._conditions

    @conditions.setter
    def conditions(self, value: Optional[LinkConditions]) -> None:
        if value is not None and not isinstance(value, LinkConditions):
            raise TypeError(f"conditions must be LinkConditions or None, "
                            f"got {type(value).__name__}")
        self._conditions = value
        if value is not None:
            if value.reorder is not None and self._held is None:
                self._held = (deque(), deque())
            if value.jitter is not None and self._last_delivery is None:
                self._last_delivery = [0.0, 0.0]

    def _stream(self, kind: int, direction: int) -> random.Random:
        """Build the PRNG of one purpose in one direction, on its first
        draw, into the direction's draw list.

        Each direction of each purpose draws alone, so installing a
        condition never perturbs another stream (nor another link's), and
        a draw does not depend on how the directions' frames interleave.
        Direction 0 keeps the names of the streams both once shared
        (``rng`` for loss, ``"corrupt"``, ...); direction 1 appends
        ``:1``.  Without a factory a name seeds from ``"<link
        name>:<name>"``, and direction 0's loss from 0.
        """
        name = _STREAM_NAMES[direction][kind]
        factory = self._rng_factory
        if not name:
            if self._rng is None:
                self._rng = (factory() if factory is not None
                             else random.Random(0))
            rng = self._rng
        else:
            if factory is not None:
                rng = factory(name)
            else:
                digest = hashlib.sha256(
                    f"{self.name}:{name}".encode()).digest()
                rng = random.Random(int.from_bytes(digest[:8], "big"))
            if self._cond_rngs is None:
                self._cond_rngs = {}
            self._cond_rngs[name] = rng
        self._draws[direction][kind] = rng
        return rng

    def observe(self, callback: Callable[["Link", bool], None]) -> None:
        """Register for fail/repair notifications (carrier detection)."""
        self._observers.append(callback)

    def fail(self) -> None:
        """Take the link down: the arrivals of frames still serializing
        (queued ones included) or parked are cancelled, but they keep
        their place on the wire, as their fate was decided at the send.
        Frames already propagating die on arrival while the link is
        down, and sends are dropped until :meth:`repair`."""
        if not self._up:
            return
        self._up = False
        now = self._engine.now
        for direction in (0, 1):
            last = self._busy[direction]
            if last is None or last[0] <= now:
                continue
            queue = self._queues[direction]
            for end, arrival, _payload, _size in (
                    queue if queue and queue[-1] is last else (last,)):
                if end > now and arrival is not None:
                    arrival.cancel()
        if self._held is not None:
            for held in self._held:
                for entry in held:
                    if entry.release > now and entry.arrival is not None:
                        entry.arrival.cancel()
                        entry.arrival = None
        for callback in list(self._observers):
            callback(self, False)

    def repair(self) -> None:
        """Bring the link back up."""
        if self._up:
            return
        self._up = True
        for callback in list(self._observers):
            callback(self, True)

    def frees_at(self, from_index: int) -> Optional[float]:
        """When a frame tail-dropped now would find room: the end of the
        frame in service; None while down or with none in service."""
        queue = self._queues[from_index]
        if not self._up or not queue or queue[0][0] <= self._engine.now:
            return None
        return queue[0][0]

    # ------------------------------------------------------------------
    def transmit(self, from_index: int, payload: Any, size_bytes: int) -> bool:
        """Send a frame in the given direction; returns False on tail drop.

        The one frame path: the frame's fate is decided here, under the
        rate, delay, loss model and conditions in effect now, and its
        only event is its arrival.  It starts when the direction frees,
        serializes until ``end = start + tx_time`` and, on a clean
        direction (no conditions, a lossless model, no reorder state),
        arrives at ``end + delay`` — the floats of an event at ``end``.
        Otherwise :meth:`_decide` draws its fate.  A direction's frames
        are sent in the order they serialize, so its streams are drawn
        in the order events at their ends would draw them.

        The direction keeps its last frame's record, and those of the
        frames still serializing once one had to wait: they count
        against ``queue_limit`` (all but the one in service), and
        :meth:`fail` cancels their arrivals.  A frame whose serialization
        ends at this very instant has left the count.
        """
        if size_bytes <= 0:
            raise ValueError(f"frame size must be positive, got {size_bytes}")
        if not self._up:
            self.frames_dropped_queue[from_index] += 1
            self._trace_count("link.drop.down")
            return False
        now = self._engine.now
        last = self._busy[from_index]
        queue = None
        if last is None or last[0] <= now:
            start, waiting = now, 0
        else:
            # the direction is busy until the last frame's end: keep the
            # frames from the one in service on, dropping those finished
            start = last[0]
            queue = self._queues[from_index]
            while queue and queue[0][0] <= now:
                queue.popleft()
            if not queue:
                queue = self._queues[from_index] = deque((last,))
            waiting = len(queue) - 1
        if waiting >= self.queue_limit:
            self.frames_dropped_queue[from_index] += 1
            self._trace_count("link.drop.queue")
            return False
        self.frames_sent[from_index] += 1
        if (self._conditions is None and self.loss.lossless
                and self._held is None):
            end = start + size_bytes * 8.0 / self.capacity_bps
            record = (end, self._arrival(from_index, payload, size_bytes,
                                         end + self.delay),
                      payload, size_bytes)
        else:
            record = self._decide(from_index, payload, size_bytes, start)
        self._busy[from_index] = record
        if queue is not None:
            queue.append(record)
        return True

    def _decide(self, direction: int, payload: Any, size: int,
                start: float) -> _Record:
        """A frame's fate on a lossy, conditioned or reordering
        direction, given its start; returns its record.

        In a fixed order: the shaper's wait, then at the end the loss
        draw, corruption, jitter and reordering, each from its own
        stream.  ``preserve_order`` jitter clamps the arrival to the
        latest one decided in this direction (ties run in scheduling
        order, so equality keeps FIFO).  A parked frame arrives its delay
        after ``end + max_hold``, or after the end of the ``depth``-th
        later frame to arrive if that comes first.
        """
        conditions = self._conditions
        draws = self._draws
        if draws is None:
            draws = self._draws = ([None] * 4, [None] * 4)
        draws = draws[direction]
        tx_time = size * 8.0 / self.capacity_bps
        if conditions is not None and conditions.shaper is not None:
            # the token-bucket wait precedes serialization, so shaping
            # keeps FIFO order and holds the direction busy meanwhile
            tx_time += conditions.shaper.reserve(direction, size, start)
        end = start + tx_time
        loss = self.loss
        if not loss.lossless and loss.should_drop(
                draws[_LOSS] or self._stream(_LOSS, direction), end,
                direction):
            self.frames_dropped_loss[direction] += 1
            self._trace_count("link.drop.loss")
            return (end, None, payload, size)
        delay = self.delay
        jitter = reorder = None
        if conditions is not None:
            corruption = conditions.corruption
            if corruption is not None:
                rng = (draws[_CORRUPT]
                       or self._stream(_CORRUPT, direction))
                if corruption.should_corrupt(rng):
                    payload = corruption.corrupt(rng, payload)
                    self.frames_corrupted[direction] += 1
                    self._trace_count("link.corrupted")
            jitter = conditions.jitter
            if jitter is not None:
                delay += jitter.sample(draws[_JITTER]
                                       or self._stream(_JITTER, direction))
            reorder = conditions.reorder
        held = self._held[direction] if self._held is not None else None
        parked = held[-1] if held else None
        if parked is not None and parked.release <= end:
            parked = None           # released before this frame ends
        if (parked is None and reorder is not None
                and reorder.should_displace(
                    draws[_REORDER] or self._stream(_REORDER, direction))):
            now = self._engine.now
            while held and held[0].release <= now:
                held.popleft()      # on the wire: nothing left to cancel
            entry = _HeldFrame(payload, size, end + reorder.max_hold,
                               reorder.depth, delay)
            entry.arrival = self._arrival(direction, payload, size,
                                          entry.release + delay)
            held.append(entry)
            return (end, None, payload, size)
        when = end + delay
        if jitter is not None and jitter.preserve_order:
            last = self._last_delivery
            if when < last[direction]:
                when = last[direction]
            last[direction] = when
        record = (end, self._arrival(direction, payload, size, when),
                  payload, size)
        if parked is not None:
            parked.remaining -= 1
            if parked.remaining <= 0:
                # overtaken `depth` times: it re-enters the wire at this
                # frame's end (deliberately displaced, so no clamp)
                parked.release = end
                if parked.arrival is not None:
                    parked.arrival.cancel()
                    parked.arrival = self._arrival(
                        direction, parked.payload, parked.size,
                        end + parked.delay)
        return record

    def _arrival(self, direction: int, payload: Any, size: int,
                 when: float) -> Optional[Event]:
        """Schedule a frame's arrival at ``when``.

        The single seam where a live payload becomes wire data:
        subclasses that cut a link at a simulation boundary (the shard
        subsystem's half-links) override it to capture the encoded frame
        instead of scheduling local delivery.  Queueing, serialization
        and every draw stay shared either way.
        """
        return self._engine.call_at(when, self._deliver, direction, payload,
                                    size, label=self._rx_label)

    def _deliver(self, direction: int, payload: Any, size: int) -> None:
        last = self._busy[direction]
        if last is not None and last[0] <= self._engine.now:
            # the direction's last frame is on the wire: nothing is left
            # serializing, so let the records (and payloads) go
            self._busy[direction] = self._queues[direction] = None
        if not self._up:
            return
        self.frames_delivered[direction] += 1
        self.bytes_delivered[direction] += size
        # LinkEnd.deliver inline: one call less per frame
        receiver = self.ends[1 - direction]._receiver
        if receiver is not None:
            receiver(payload, size)

    def _trace_count(self, name: str) -> None:
        if self._tracer is not None:
            self._tracer.count(name)

    # ------------------------------------------------------------------
    def utilization(self, elapsed: float, direction: int = 0) -> float:
        """Fraction of ``elapsed`` the direction spent serializing delivered
        bytes (an a-posteriori estimate used by the utilization experiment)."""
        if elapsed <= 0:
            return math.nan
        busy = self.bytes_delivered[direction] * 8.0 / self.capacity_bps
        return busy / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self._up else "DOWN"
        return f"<Link {self.name} {self.capacity_bps/1e6:.1f}Mbps {state}>"
