"""Unit tests for simulated links and loss models."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.engine import Engine
from repro.sim.link import (BandwidthShaper, CorruptionModel, GilbertElliott,
                            Link, LinkConditions, NoLoss, ReorderModel,
                            UniformJitter, UniformLoss)


def make_link(**kwargs):
    engine = Engine()
    link = Link(engine, "test", **kwargs)
    inbox_a, inbox_b = [], []
    link.ends[0].attach(lambda p, s: inbox_a.append((engine.now, p, s)))
    link.ends[1].attach(lambda p, s: inbox_b.append((engine.now, p, s)))
    return engine, link, inbox_a, inbox_b


class TestDelivery:
    def test_one_frame_arrives_at_peer(self):
        engine, link, inbox_a, inbox_b = make_link()
        link.ends[0].send("hello", 100)
        engine.run()
        assert [(p, s) for _, p, s in inbox_b] == [("hello", 100)]
        assert inbox_a == []

    def test_delivery_time_is_serialization_plus_propagation(self):
        engine, link, _a, inbox_b = make_link(capacity_bps=1e6, delay=0.01)
        link.ends[0].send("x", 1250)  # 1250 B at 1 Mb/s = 10 ms
        engine.run()
        assert inbox_b[0][0] == pytest.approx(0.02)

    def test_back_to_back_frames_serialize_sequentially(self):
        engine, link, _a, inbox_b = make_link(capacity_bps=1e6, delay=0.0)
        link.ends[0].send("one", 1250)
        link.ends[0].send("two", 1250)
        engine.run()
        times = [t for t, _p, _s in inbox_b]
        assert times == pytest.approx([0.01, 0.02])

    def test_full_duplex_directions_independent(self):
        engine, link, inbox_a, inbox_b = make_link(capacity_bps=1e6, delay=0.0)
        link.ends[0].send("to-b", 1250)
        link.ends[1].send("to-a", 1250)
        engine.run()
        assert inbox_a[0][0] == pytest.approx(0.01)
        assert inbox_b[0][0] == pytest.approx(0.01)

    def test_queue_limit_tail_drop(self):
        engine, link, _a, inbox_b = make_link(queue_limit=2, capacity_bps=1e6)
        results = [link.ends[0].send(str(i), 1000) for i in range(5)]
        engine.run()
        # one in service leaves as queue slots free up; only rejects count
        assert results.count(False) >= 1
        assert link.frames_dropped_queue[0] == results.count(False)
        assert len(inbox_b) == results.count(True)

    def test_zero_size_frame_rejected(self):
        engine, link, _a, _b = make_link()
        with pytest.raises(ValueError):
            link.ends[0].send("x", 0)

    def test_peer_property(self):
        _engine, link, _a, _b = make_link()
        assert link.ends[0].peer is link.ends[1]
        assert link.ends[1].peer is link.ends[0]

    def test_statistics_track_bytes(self):
        engine, link, _a, _b = make_link()
        link.ends[0].send("x", 300)
        link.ends[0].send("y", 200)
        engine.run()
        assert link.bytes_delivered[0] == 500
        assert link.frames_delivered[0] == 2


class TestLazyQueues:
    def test_a_built_idle_plant_holds_no_queue(self):
        from repro.experiments.e6_scalability import build_flood_spec
        from repro.shard import all_nodes_announce, attach_flood
        spec = build_flood_spec(10, 20)
        network = spec.build(seed=1)
        attach_flood(network, all_nodes_announce(spec.nodes))
        assert len(network.links) == 210
        assert all(queue is None for link in network.links.values()
                   for queue in link._queues)

    def test_burst_keeps_fifo_and_tail_drops_at_the_limit(self):
        engine, link, inbox_a, inbox_b = make_link(queue_limit=2,
                                                   capacity_bps=1e6)
        results = [link.ends[0].send(str(i), 1000) for i in range(5)]
        # one frame on the wire, two queued behind it, two dropped
        assert results == [True, True, True, False, False]
        assert link.frames_sent == [3, 0]
        assert link.frames_dropped_queue == [2, 0]
        assert link._queues[1] is None
        engine.run()
        assert [p for _t, p, _s in inbox_b] == ["0", "1", "2"]
        assert inbox_a == []
        # the drained direction serves the next burst the same way
        results = [link.ends[0].send(str(i), 1000) for i in range(5, 9)]
        assert results == [True, True, True, False]
        engine.run()
        assert [p for _t, p, _s in inbox_b] == ["0", "1", "2", "5", "6", "7"]

    def test_zero_queue_limit_drops_every_frame(self):
        engine, link, _a, inbox_b = make_link(queue_limit=0)
        assert [link.ends[0].send("x", 100) for _ in range(3)] == [False] * 3
        engine.run()
        assert inbox_b == []
        assert link.frames_sent == [0, 0]
        assert link.frames_dropped_queue == [3, 0]
        assert link._queues == [None, None]

    def test_fail_with_and_without_a_queue(self):
        engine, link, _a, inbox_b = make_link(capacity_bps=1e6)
        link.ends[0].send("x", 1250)
        link.ends[0].send("y", 1250)     # queued: direction 0 is busy
        assert link._queues[1] is None
        engine.call_at(0.005, link.fail)
        engine.run()
        assert inbox_b == []
        link.repair()
        link.ends[0].send("z", 1250)
        engine.run()
        assert [p for _t, p, _s in inbox_b] == ["z"]


class TestFailure:
    def test_failed_link_drops_everything(self):
        engine, link, _a, inbox_b = make_link()
        link.fail()
        assert link.ends[0].send("x", 100) is False
        engine.run()
        assert inbox_b == []

    def test_repair_restores_delivery(self):
        engine, link, _a, inbox_b = make_link()
        link.fail()
        link.repair()
        link.ends[0].send("x", 100)
        engine.run()
        assert len(inbox_b) == 1

    def test_in_flight_frames_lost_on_failure(self):
        engine, link, _a, inbox_b = make_link(capacity_bps=1e6, delay=0.5)
        link.ends[0].send("x", 1250)
        engine.call_at(0.1, link.fail)
        engine.run()
        assert inbox_b == []

    def test_observers_notified_once_per_transition(self):
        _engine, link, _a, _b = make_link()
        seen = []
        link.observe(lambda lk, up: seen.append(up))
        link.fail()
        link.fail()   # no-op
        link.repair()
        link.repair()  # no-op
        assert seen == [False, True]

    def test_utilization_estimate(self):
        engine, link, _a, _b = make_link(capacity_bps=1e6, delay=0.0)
        link.ends[0].send("x", 12500)  # 0.1 s of the wire
        engine.run()
        assert link.utilization(1.0, 0) == pytest.approx(0.1)


class TestLossModels:
    def test_no_loss_never_drops(self):
        model = NoLoss()
        rng = random.Random(1)
        assert not any(model.should_drop(rng, 0.0) for _ in range(1000))

    def test_uniform_loss_rate_is_approximate(self):
        model = UniformLoss(0.3)
        rng = random.Random(1)
        drops = sum(model.should_drop(rng, 0.0) for _ in range(10000))
        assert 0.27 < drops / 10000 < 0.33

    def test_uniform_loss_validates_probability(self):
        with pytest.raises(ValueError):
            UniformLoss(1.5)

    def test_gilbert_elliott_is_bursty(self):
        model = GilbertElliott(p_good_to_bad=0.01, p_bad_to_good=0.1,
                               loss_good=0.0, loss_bad=1.0)
        rng = random.Random(7)
        outcomes = [model.should_drop(rng, 0.0) for _ in range(20000)]
        drops = sum(outcomes)
        assert drops > 0
        # burstiness: drops cluster — count runs of consecutive drops
        runs = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a and b)
        assert runs > drops * 0.5  # far more clustered than independent loss

    def test_gilbert_elliott_fade_stays_in_its_direction(self):
        """Each direction keeps its own channel state and its own stream:
        a fade in one direction leaves the other's draws unchanged."""
        def run(forward_traffic):
            engine = Engine()
            link = Link(engine, "ge", loss=GilbertElliott(
                p_good_to_bad=0.05, p_bad_to_good=0.2, loss_good=0.0,
                loss_bad=1.0))
            back = []
            link.ends[0].attach(lambda p, s: back.append((engine.now, p)))
            for index in range(400):
                engine.call_at(index * 0.001, link.ends[1].send, index, 100)
                if forward_traffic:
                    engine.call_at(index * 0.001, link.ends[0].send,
                                   index, 100)
            engine.run()
            return back, link
        quiet, _link = run(False)
        busy, link = run(True)
        assert link.frames_dropped_loss[0] > 0       # direction 0 faded
        assert 0 < len(busy) < 400
        assert busy == quiet

    def test_gilbert_elliott_validates_parameters(self):
        with pytest.raises(ValueError):
            GilbertElliott(p_good_to_bad=2.0)

    def test_lossy_link_drops_frames(self):
        engine = Engine()
        link = Link(engine, "lossy", loss=UniformLoss(1.0),
                    rng=random.Random(3))
        inbox = []
        link.ends[1].attach(lambda p, s: inbox.append(p))
        link.ends[0].send("x", 100)
        engine.run()
        assert inbox == []
        assert link.frames_dropped_loss[0] == 1


class TestValidation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Link(Engine(), "bad", capacity_bps=0)
        with pytest.raises(ValueError):
            Link(Engine(), "bad", delay=-1)


# ----------------------------------------------------------------------
# The link contract, against a reference that steps through events
# ----------------------------------------------------------------------
class _Frame:
    """A frame in :class:`SteppedLink`, with what it was sent under."""

    def __init__(self, payload, size, link):
        self.payload, self.size = payload, size
        self.capacity, self.delay = link.capacity_bps, link.delay
        self.loss, self.conditions = link.loss, link.conditions
        self.end = None
        self.dead = False


class SteppedLink:
    """The :class:`Link` contract, stepped through events: the reference
    that ``TestFailureRule`` holds the link to.

    A frame keeps the rate, delay, loss model and conditions in effect
    when it was sent.  It starts when its direction frees (a shaper's
    wait first, counted as serialization), and an event at its
    serialization end draws its loss, corruption, jitter and reorder
    fate, in that order, from its direction's streams, named as
    :class:`Link` names them.  A parked frame waits for an event: its
    ``max_hold`` timeout, or the serialization end of the ``depth``-th
    later frame.  A failure marks the frames still queued, serializing or
    parked dead: they keep their place and their draws but never
    arrive, and an arrival while the link is down is lost too.
    """

    def __init__(self, engine, name, capacity_bps, delay, loss,
                 queue_limit, rng_factory):
        self.engine, self.name = engine, name
        self.capacity_bps, self.delay, self.loss = capacity_bps, delay, loss
        self.queue_limit = queue_limit
        self.conditions = None
        self.up = True
        self.factory = rng_factory
        self.streams = {}
        self.queues = ([], [])
        self.serving = [None, None]
        self.held = [None, None]
        self.floor = [0.0, 0.0]
        self.ends = (_SteppedEnd(self, 0), _SteppedEnd(self, 1))
        for counter in COUNTERS:
            setattr(self, counter, [0, 0])

    def stream(self, purpose, direction):
        name = (purpose + ":1" if direction
                else "" if purpose == "loss" else purpose)
        if name not in self.streams:
            self.streams[name] = self.factory(name)
        return self.streams[name]

    def send(self, direction, payload, size):
        now = self.engine.now
        if not self.up:
            self.frames_dropped_queue[direction] += 1
            return False
        serving, queue = self.serving[direction], self.queues[direction]
        in_flight = len(queue) + (serving is not None and serving.end > now)
        if max(in_flight - 1, 0) >= self.queue_limit:
            self.frames_dropped_queue[direction] += 1
            return False
        self.frames_sent[direction] += 1
        frame = _Frame(payload, size, self)
        if serving is None:
            self.start(direction, frame)
        else:
            queue.append(frame)
        return True

    def start(self, direction, frame):
        self.serving[direction] = frame
        tx_time = frame.size * 8.0 / frame.capacity
        shaper = frame.conditions and frame.conditions.shaper
        if shaper:
            tx_time += shaper.reserve(direction, frame.size, self.engine.now)
        event = self.engine.call_later(tx_time, self.serialized, direction,
                                       frame)
        frame.end = event.time

    def serialized(self, direction, frame):
        self.fate(direction, frame)
        queue = self.queues[direction]
        if queue:
            self.start(direction, queue.pop(0))
        else:
            self.serving[direction] = None

    def fate(self, direction, frame):
        now = self.engine.now
        if not frame.loss.lossless and frame.loss.should_drop(
                self.stream("loss", direction), now, direction):
            self.frames_dropped_loss[direction] += 1
            return
        payload, delay = frame.payload, frame.delay
        jitter = reorder = None
        if frame.conditions is not None:
            corruption = frame.conditions.corruption
            if corruption is not None:
                rng = self.stream("corrupt", direction)
                if corruption.should_corrupt(rng):
                    payload = corruption.corrupt(rng, payload)
                    self.frames_corrupted[direction] += 1
            jitter = frame.conditions.jitter
            if jitter is not None:
                delay += jitter.sample(self.stream("jitter", direction))
            reorder = frame.conditions.reorder
        held = self.held[direction]
        if held is None and reorder is not None and reorder.should_displace(
                self.stream("reorder", direction)):
            held = self.held[direction] = [frame, payload, delay,
                                           reorder.depth, None]
            held[4] = self.engine.call_later(reorder.max_hold, self.release,
                                             direction, held)
            return
        when = now + delay
        if jitter is not None and jitter.preserve_order:
            when = self.floor[direction] = max(when, self.floor[direction])
        self.arrive(direction, frame, payload, when)
        if held is not None:
            held[3] -= 1
            if held[3] == 0:
                held[4].cancel()
                self.release(direction, held)

    def release(self, direction, held):
        self.held[direction] = None
        frame, payload, delay, _remaining, _timeout = held
        self.arrive(direction, frame, payload, self.engine.now + delay)

    def arrive(self, direction, frame, payload, when):
        if not frame.dead:
            self.engine.call_at(when, self.deliver, direction, payload,
                                frame.size)

    def deliver(self, direction, payload, size):
        if self.up:
            self.frames_delivered[direction] += 1
            self.bytes_delivered[direction] += size
            self.ends[1 - direction].receiver(payload, size)

    def fail(self):
        if not self.up:
            return
        self.up = False
        now = self.engine.now
        for direction in (0, 1):
            serving = self.serving[direction]
            if serving is not None and serving.end > now:
                serving.dead = True
            for frame in self.queues[direction]:
                frame.dead = True
            held = self.held[direction]
            if held is not None and held[4].time > now:
                held[0].dead = True

    def repair(self):
        self.up = True


class _SteppedEnd:
    def __init__(self, link, index):
        self.link, self.index, self.receiver = link, index, None

    def attach(self, receiver):
        self.receiver = receiver

    def send(self, payload, size):
        return self.link.send(self.index, payload, size)


#: condition bundles a script may install (a fresh one per link: the
#: shaper keeps per-link bucket state)
CONDITIONS = {
    "none": lambda: None,
    "jitter": lambda: LinkConditions(jitter=UniformJitter(0.0007)),
    "shaper": lambda: LinkConditions(shaper=BandwidthShaper(2e5, 400)),
    "corrupt": lambda: LinkConditions(corruption=CorruptionModel(0.5)),
    "reorder": lambda: LinkConditions(
        reorder=ReorderModel(0.5, depth=2, max_hold=0.004)),
    "park": lambda: LinkConditions(
        reorder=ReorderModel(1.0, depth=1, max_hold=0.004)),
    "jittered-reorder": lambda: LinkConditions(
        jitter=UniformJitter(0.0007), corruption=CorruptionModel(0.3),
        reorder=ReorderModel(0.5, depth=2, max_hold=0.004)),
}

COUNTERS = ("frames_sent", "frames_dropped_queue", "frames_dropped_loss",
            "frames_delivered", "bytes_delivered", "frames_corrupted")


def twin_run(script, capacity_bps, delay, queue_limit=256):
    """Run one script of ``(time, op, arg)`` on a :class:`Link` whose
    model is ``NoLoss``, on one whose model is ``UniformLoss(0.0)`` (not
    ``lossless``, so every frame draws, and none drops) and on the
    reference; returns each one's per-direction arrivals
    ``(time, payload, size)`` and counters.

    ``loss`` ops switch between the run's own quiet model and
    ``UniformLoss(1.0)``, which drops every frame whatever its draw.  All
    three build their streams from one factory, by name, so the draws
    agree exactly where the contract says they must.
    """
    def factory(name=""):
        return random.Random(f"twin:{name}")

    outcomes = []
    for quiet, kind in ((NoLoss(), Link), (UniformLoss(0.0), Link),
                        (NoLoss(), SteppedLink)):
        engine = Engine()
        if kind is Link:
            link = Link(engine, "twin", capacity_bps=capacity_bps,
                        delay=delay, loss=quiet, queue_limit=queue_limit,
                        rng_factory=factory)
        else:
            link = SteppedLink(engine, "twin", capacity_bps, delay, quiet,
                               queue_limit, factory)
        arrivals = ([], [])
        for direction in (0, 1):
            link.ends[1 - direction].attach(
                lambda payload, size, box=arrivals[direction]:
                box.append((engine.now, payload, size)))

        def apply(op, arg, link=link, quiet=quiet):
            if op == "send":
                direction, size, tag = arg
                link.ends[direction].send(b"frame-%d" % tag, size)
            elif op == "fail":
                link.fail()
            elif op == "repair":
                link.repair()
            elif op == "delay":
                link.delay = arg
            elif op == "capacity":
                link.capacity_bps = arg
            elif op == "loss":
                link.loss = UniformLoss(1.0) if arg else quiet
            else:
                link.conditions = CONDITIONS[arg]()

        for when, op, arg in script:
            engine.call_at(when, apply, op, arg)
        engine.run()
        outcomes.append((arrivals, {name: list(getattr(link, name))
                                    for name in COUNTERS}))
    return outcomes


def run_twins(script, **kwargs):
    """The link's outcome, asserted equal to the reference's."""
    quiet, drawing, reference = twin_run(script, **kwargs)
    assert quiet == reference
    assert drawing == reference
    return reference


#: 1,250 B at 1 Mb/s serialize in 10 ms; the propagation delay is 10 ms
SLOW = {"capacity_bps": 1e6, "delay": 0.01}


def arrival_times(outcome, direction=0):
    return [when for when, _payload, _size in outcome[0][direction]]


class TestFailureRule:
    """Every frame's fate is decided when it is sent, and the only event
    it costs is its arrival; :class:`SteppedLink` steps through an event
    at every serialization end instead.  The rule both keep: a change of
    ``loss``, ``delay``, ``capacity_bps`` or ``conditions`` applies to the
    frames sent after it; a failure loses the frames still queued,
    serializing or parked (they keep their place on the wire), and a
    frame arriving while the link is down."""

    def test_fail_while_queued_discards_the_queue(self):
        outcome = run_twins([(0.0, "send", (0, 1250, 0)),
                             (0.0, "send", (0, 1250, 1)),
                             (0.0, "send", (0, 1250, 2)),
                             (0.015, "fail", None),
                             (0.0155, "repair", None),
                             (0.025, "send", (0, 1250, 3))], **SLOW)
        # at the failure frame 0 was on the wire, frame 1 serializing and
        # frame 2 queued: both are lost, and frame 3 still waits for the
        # wire time they were given (it starts at 0.03)
        assert [p for _t, p, _s in outcome[0][0]] == [b"frame-0", b"frame-3"]
        assert arrival_times(outcome) == pytest.approx([0.02, 0.05])

    def test_fail_during_serialization_kills_the_frame(self):
        outcome = run_twins([(0.0, "send", (0, 1250, 0)),
                             (0.005, "fail", None),
                             (0.015, "repair", None)], **SLOW)
        assert outcome[0] == ([], [])
        assert outcome[1]["frames_sent"] == [1, 0]

    def test_fail_and_repair_within_one_serialization_kills_it(self):
        outcome = run_twins([(0.0, "send", (0, 1250, 0)),
                             (0.003, "fail", None),
                             (0.006, "repair", None)], **SLOW)
        assert outcome[0] == ([], [])

    def test_fail_in_flight_kills_the_frame_at_arrival(self):
        outcome = run_twins([(0.0, "send", (0, 1250, 0)),
                             (0.015, "fail", None),
                             (0.025, "repair", None)], **SLOW)
        assert outcome[0] == ([], [])

    def test_fail_kills_a_parked_reorder_frame(self):
        outcome = run_twins([(0.0, "conditions", "park"),
                             (0.0, "send", (0, 1250, 0)),
                             (0.012, "fail", None),
                             (0.013, "repair", None),
                             (0.013, "send", (0, 1250, 1))], **SLOW)
        # frame 0 is parked from its end (0.01) until max_hold (0.014):
        # the failure loses it.  Frame 1 parks in turn and arrives
        # max_hold after its end plus the delay
        assert outcome[0] == ([(pytest.approx(0.037), b"frame-1", 1250)],
                              [])

    def test_jitter_opened_mid_serialization_reaches_only_later_frames(self):
        outcome = run_twins([(0.0, "send", (0, 1250, 0)),
                             (0.005, "conditions", "jitter"),
                             (0.006, "send", (0, 1250, 1))], **SLOW)
        first, second = arrival_times(outcome)
        assert first == 0.02
        assert 0.03 <= second <= 0.0307

    def test_zero_queue_limit_drops_on_both_paths(self):
        outcome = run_twins([(0.0, "send", (0, 100, 0)),
                             (0.001, "loss", True),
                             (0.002, "send", (0, 100, 1))], queue_limit=0,
                            capacity_bps=1e8, delay=0.001)
        assert outcome[0] == ([], [])
        assert outcome[1]["frames_dropped_queue"] == [2, 0]

    def test_rate_change_reaches_only_frames_sent_after_it(self):
        outcome = run_twins([(0.0, "send", (0, 1250, 0)),
                             (0.0, "send", (0, 1250, 1)),
                             (0.005, "capacity", 2e6),
                             (0.006, "send", (0, 1250, 2))], **SLOW)
        # frames 0 and 1 keep their 10 ms, frame 2 serializes in 5 ms
        assert arrival_times(outcome) == pytest.approx([0.02, 0.03, 0.035])

    def test_a_change_at_a_serialization_end_finds_the_frame_on_the_wire(self):
        # A change never reaches a frame already sent, and a failure at
        # the very instant a frame's serialization ends finds it on the
        # wire: it survives a failure repaired before its arrival.
        engine = Engine()
        link = Link(engine, "tie", **SLOW)
        inbox = []
        link.ends[1].attach(lambda p, s: inbox.append((engine.now, p)))
        end = 0.0 + 1250 * 8.0 / 1e6
        engine.call_at(end, setattr, link, "delay", 0.05)
        engine.call_at(end, link.fail)
        engine.call_at(end + 0.005, link.repair)
        link.ends[0].send("x", 1250)
        engine.run()
        assert inbox == [(end + 0.01, "x")]

    def test_a_loss_model_installed_mid_serialization_spares_the_frame(self):
        outcome = run_twins([(0.0, "send", (0, 1250, 0)),
                             (0.005, "loss", True),
                             (0.006, "send", (0, 1250, 1)),
                             (0.015, "loss", False)], **SLOW)
        assert arrival_times(outcome) == [0.02]
        assert outcome[1]["frames_dropped_loss"] == [1, 0]

    @settings(max_examples=150, deadline=None)
    @given(sends=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 1),
                                    st.integers(50, 2500)),
                          min_size=1, max_size=30),
           changes=st.lists(st.tuples(st.integers(0, 60), st.one_of(
               st.tuples(st.sampled_from(["fail", "repair"]), st.none()),
               st.tuples(st.just("delay"),
                         st.sampled_from([0.0, 0.001, 0.004])),
               st.tuples(st.just("capacity"),
                         st.sampled_from([3e5, 1e6, 4e6])),
               st.tuples(st.just("loss"), st.booleans()),
               st.tuples(st.just("conditions"),
                         st.sampled_from(sorted(CONDITIONS))))),
               max_size=12),
           queue_limit=st.integers(0, 4))
    # a send at exactly frame 0's serialization end, scheduled before the
    # reference's serialization-end event, with the one queue slot taken:
    # the slot frees that instant, so frame 1 is queued, not tail-dropped
    @example(sends=[(51, 0, 1000), (59, 0, 50), (51, 0, 50)], changes=[],
             queue_limit=1)
    def test_arithmetic_path_equals_the_event_path(self, sends, changes,
                                                   queue_limit):
        # sends sit on a 1 ms grid, so one can land on a serialization
        # end; every change sits 0.37 ms past the grid, so no change does
        # (a failure at a serialization end is the tie above)
        script = [(slot * 1e-3, "send", (direction, size, tag))
                  for tag, (slot, direction, size) in enumerate(sends)]
        script += [(slot * 1e-3 + 3.7123e-4, op, arg)
                   for slot, (op, arg) in changes]
        run_twins(script, capacity_bps=1e6, delay=0.002,
                  queue_limit=queue_limit)
