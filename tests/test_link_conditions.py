"""Property and regression tests for the composable link-condition layer
(jitter, token-bucket shaping, payload corruption, bounded reordering).

Each model is a strategy object drawing from its own named deterministic
RNG stream, so the core invariants here double as the determinism
contract: a clean link is byte-identical to the pre-conditions code
path, and installing a condition can never perturb the loss stream or
any other link's streams.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine
from repro.sim.link import (BandwidthShaper, CorruptedFrame, CorruptionModel,
                            Link, LinkConditions, NormalJitter, ReorderModel,
                            UniformJitter, UniformLoss)
from repro.sim.network import Network


def make_link(name="test", **kwargs):
    engine = Engine()
    link = Link(engine, name, **kwargs)
    inbox_a, inbox_b = [], []
    link.ends[0].attach(lambda p, s: inbox_a.append((engine.now, p, s)))
    link.ends[1].attach(lambda p, s: inbox_b.append((engine.now, p, s)))
    return engine, link, inbox_a, inbox_b


# ----------------------------------------------------------------------
# Jitter
# ----------------------------------------------------------------------
class TestJitterModels:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=10_000))
    def test_property_normal_sample_finite_in_range(self, mean, stddev, seed):
        model = NormalJitter(mean=mean, stddev=stddev)
        rng = random.Random(seed)
        for _ in range(200):
            value = model.sample(rng)
            assert math.isfinite(value)
            assert 0.0 <= value <= model.cap

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=10_000))
    def test_property_uniform_sample_in_range(self, amplitude, seed):
        model = UniformJitter(amplitude)
        rng = random.Random(seed)
        for _ in range(200):
            value = model.sample(rng)
            assert math.isfinite(value)
            assert 0.0 <= value <= amplitude

    def test_normal_cap_defaults_to_mean_plus_four_sigma(self):
        model = NormalJitter(mean=0.01, stddev=0.002)
        assert model.cap == pytest.approx(0.01 + 4 * 0.002)

    @pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            UniformJitter(bad)
        with pytest.raises(ValueError):
            NormalJitter(mean=bad, stddev=0.001)
        with pytest.raises(ValueError):
            NormalJitter(mean=0.001, stddev=bad)

    def test_preserve_order_keeps_fifo_under_heavy_jitter(self):
        # jitter amplitude 100x the inter-frame spacing: without the
        # clamp nearly every pair would swap
        engine, link, _a, inbox_b = make_link(
            capacity_bps=1e8, delay=0.001,
            conditions=LinkConditions(jitter=UniformJitter(0.1)))
        for index in range(50):
            engine.call_at(index * 0.001, link.ends[0].send, index, 100)
        engine.run()
        assert [p for _t, p, _s in inbox_b] == list(range(50))
        times = [t for t, _p, _s in inbox_b]
        assert times == sorted(times)

    def test_unordered_jitter_actually_reorders(self):
        engine, link, _a, inbox_b = make_link(
            capacity_bps=1e8, delay=0.001,
            conditions=LinkConditions(
                jitter=UniformJitter(0.1, preserve_order=False)))
        for index in range(50):
            engine.call_at(index * 0.001, link.ends[0].send, index, 100)
        engine.run()
        got = [p for _t, p, _s in inbox_b]
        assert sorted(got) == list(range(50))   # nothing lost or duplicated
        assert got != list(range(50))           # ... but order was broken

    def test_jitter_never_delivers_before_propagation(self):
        engine, link, _a, inbox_b = make_link(
            capacity_bps=1e8, delay=0.005,
            conditions=LinkConditions(jitter=NormalJitter(0.002, 0.001)))
        sends = []
        for index in range(40):
            engine.call_at(index * 0.01,
                           lambda i=index: (sends.append(engine.now),
                                            link.ends[0].send(i, 100)))
        engine.run()
        for (when, _p, _s), sent in zip(inbox_b, sends):
            assert when >= sent + 0.005


# ----------------------------------------------------------------------
# Token-bucket shaping
# ----------------------------------------------------------------------
class TestBandwidthShaper:
    def test_full_bucket_costs_nothing(self):
        shaper = BandwidthShaper(1e6, burst_bytes=10_000)
        assert shaper.reserve(0, 1000, 0.0) == 0.0

    def test_deficit_wait_is_exact(self):
        shaper = BandwidthShaper(8e6, burst_bytes=1000)  # 1e6 B/s
        shaper.reserve(0, 1000, 0.0)                     # drain the bucket
        assert shaper.reserve(0, 500, 0.0) == pytest.approx(500 / 1e6)

    def test_directions_have_independent_buckets(self):
        shaper = BandwidthShaper(8e6, burst_bytes=1000)
        shaper.reserve(0, 1000, 0.0)
        assert shaper.reserve(1, 1000, 0.0) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([1e6, 4e6, 1e7]),
           st.floats(min_value=2000.0, max_value=20_000.0),
           st.integers(min_value=0, max_value=10_000))
    def test_property_window_bound_over_any_interval(self, rate_bps, burst,
                                                     seed):
        """Over ANY window [t_i, t_j] the shaped wire delivers at most
        ``burst + rate * window`` bytes, plus one in-flight frame."""
        engine, link, _a, inbox_b = make_link(
            name=f"shape{seed}", capacity_bps=1e9, delay=0.0,
            conditions=LinkConditions(
                shaper=BandwidthShaper(rate_bps, burst_bytes=burst)))
        rng = random.Random(seed)
        clock = 0.0
        for index in range(40):
            clock += rng.random() * 0.002
            engine.call_at(clock, link.ends[0].send, index,
                           rng.choice([200, 600, 1500]))
        engine.run()
        assert len(inbox_b) == 40
        rate = rate_bps / 8.0
        deliveries = [(t, s) for t, _p, s in inbox_b]
        for i in range(len(deliveries)):
            total = 0
            for j in range(i, len(deliveries)):
                total += deliveries[j][1]
                window = deliveries[j][0] - deliveries[i][0]
                assert total <= burst + rate * window + 1500 + 1e-6

    def test_long_run_goodput_converges_to_rate(self):
        rate_bps = 2e6
        engine, link, _a, inbox_b = make_link(
            capacity_bps=1e9, delay=0.0,
            conditions=LinkConditions(
                shaper=BandwidthShaper(rate_bps, burst_bytes=3000)))

        def pump(index=[0]):
            if engine.now < 2.0:
                link.ends[0].send(index[0], 1000)
                index[0] += 1
                engine.call_later(0.001, pump)   # 8 Mb/s offered
        pump()
        engine.run()
        span = inbox_b[-1][0] - inbox_b[0][0]
        goodput = sum(s for _t, _p, s in inbox_b[1:]) * 8.0 / span
        assert goodput == pytest.approx(rate_bps, rel=0.1)

    def test_shaping_preserves_fifo(self):
        engine, link, _a, inbox_b = make_link(
            capacity_bps=1e9, delay=0.001,
            conditions=LinkConditions(shaper=BandwidthShaper(1e6)))
        for index in range(30):
            link.ends[0].send(index, 500)
        engine.run()
        assert [p for _t, p, _s in inbox_b] == list(range(30))

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf])
    def test_invalid_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            BandwidthShaper(rate)


# ----------------------------------------------------------------------
# Corruption
# ----------------------------------------------------------------------
class TestCorruption:
    @settings(max_examples=12, deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.4),
           st.integers(min_value=0, max_value=10_000))
    def test_property_corruption_rate_converges(self, probability, seed):
        count = 1500
        engine, link, _a, inbox_b = make_link(
            name=f"corr{seed}", capacity_bps=1e9, delay=0.0,
            queue_limit=2000,
            conditions=LinkConditions(
                corruption=CorruptionModel(probability)))
        for index in range(count):
            link.ends[0].send(bytes([index % 256]) * 64, 64)
        engine.run()
        assert len(inbox_b) == count          # corrupted frames still arrive
        corrupted = link.frames_corrupted[0]
        sigma = math.sqrt(count * probability * (1 - probability))
        assert abs(corrupted - count * probability) <= 5 * sigma

    def test_bytes_payload_damaged_in_place(self):
        # max_flips=1 so a flip can never cancel another: the delivered
        # payload must differ from the original
        engine, link, _a, inbox_b = make_link(
            capacity_bps=1e9, delay=0.0,
            conditions=LinkConditions(
                corruption=CorruptionModel(1.0, max_flips=1)))
        original = bytes(range(64))
        link.ends[0].send(original, 64)
        engine.run()
        _t, payload, size = inbox_b[0]
        assert isinstance(payload, bytes)
        assert len(payload) == len(original)
        assert payload != original
        assert size == 64
        assert link.frames_corrupted[0] == 1

    def test_live_object_payload_wrapped_in_sentinel(self):
        engine, link, _a, inbox_b = make_link(
            capacity_bps=1e9, delay=0.0,
            conditions=LinkConditions(corruption=CorruptionModel(1.0)))
        link.ends[0].send(("data", 1, "payload"), 100)
        engine.run()
        _t, payload, _s = inbox_b[0]
        assert isinstance(payload, CorruptedFrame)
        assert payload.payload == ("data", 1, "payload")

    def test_zero_probability_never_corrupts(self):
        engine, link, _a, inbox_b = make_link(
            capacity_bps=1e9, delay=0.0,
            conditions=LinkConditions(corruption=CorruptionModel(0.0)))
        for index in range(100):
            link.ends[0].send(b"x" * 32, 32)
        engine.run()
        assert link.frames_corrupted == [0, 0]
        assert all(p == b"x" * 32 for _t, p, _s in inbox_b)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CorruptionModel(1.5)
        with pytest.raises(ValueError):
            CorruptionModel(0.1, max_flips=0)


# ----------------------------------------------------------------------
# Reordering
# ----------------------------------------------------------------------
class TestReorder:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.1, max_value=0.9),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=10_000))
    def test_property_displacement_bounded_nothing_lost(self, probability,
                                                        depth, seed):
        engine, link, _a, inbox_b = make_link(
            name=f"reorder{seed}", capacity_bps=1e9, delay=0.001,
            conditions=LinkConditions(
                reorder=ReorderModel(probability, depth=depth,
                                     max_hold=10.0)))
        count = 80
        for index in range(count):
            engine.call_at(index * 0.001, link.ends[0].send, index, 100)
        engine.run()
        got = [p for _t, p, _s in inbox_b]
        assert sorted(got) == list(range(count))   # exactly once each
        for position, payload in enumerate(got):
            assert abs(position - payload) <= depth

    def test_max_hold_timeout_flushes_a_stranded_frame(self):
        engine, link, _a, inbox_b = make_link(
            capacity_bps=1e9, delay=0.001,
            conditions=LinkConditions(
                reorder=ReorderModel(1.0, depth=3, max_hold=0.02)))
        link.ends[0].send("lone", 100)   # parked; no later frames overtake
        engine.run()
        assert [p for _t, p, _s in inbox_b] == ["lone"]
        # parked at serialization end, released max_hold later, then its
        # (already-drawn) propagation delay applies
        assert inbox_b[0][0] == pytest.approx(0.02 + 0.001, abs=1e-5)

    def test_removing_the_model_leaves_a_parked_frame_parked(self):
        # a change reaches only the frames sent after it: the frame
        # parked before the injector window closed keeps its max_hold,
        # and a frame sent after it overtakes it
        engine, link, _a, inbox_b = make_link(
            capacity_bps=1e9, delay=0.001,
            conditions=LinkConditions(
                reorder=ReorderModel(1.0, depth=10, max_hold=50.0)))
        link.ends[0].send("parked", 100)
        engine.run(until=0.01)
        assert inbox_b == []                       # still parked
        link.conditions = None                     # injector window closes
        link.ends[0].send("later", 100)
        engine.run()
        assert [p for _t, p, _s in inbox_b] == ["later", "parked"]
        assert inbox_b[1][0] == pytest.approx(50.0 + 0.001, abs=1e-5)

    def test_held_frames_die_with_the_link(self):
        engine, link, _a, inbox_b = make_link(
            capacity_bps=1e9, delay=0.001,
            conditions=LinkConditions(
                reorder=ReorderModel(1.0, depth=10, max_hold=0.05)))
        link.ends[0].send("doomed", 100)
        engine.run(until=0.01)
        link.fail()
        engine.run()
        assert inbox_b == []

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ReorderModel(-0.1)
        with pytest.raises(ValueError):
            ReorderModel(0.5, depth=0)
        with pytest.raises(ValueError):
            ReorderModel(0.5, max_hold=math.inf)


# ----------------------------------------------------------------------
# Bundle semantics + spec grammar
# ----------------------------------------------------------------------
class TestLinkConditionsBundle:
    def test_replace_returns_new_bundle(self):
        base = LinkConditions(jitter=UniformJitter(0.01))
        swapped = base.replace(corruption=CorruptionModel(0.1))
        assert swapped is not base
        assert swapped.jitter is base.jitter
        assert swapped.corruption is not None and base.corruption is None
        with pytest.raises(TypeError):
            base.replace(nonsense=1)

    def test_fresh_reinstantiates_only_stateful_models(self):
        bundle = LinkConditions(jitter=UniformJitter(0.01),
                                shaper=BandwidthShaper(1e6),
                                corruption=CorruptionModel(0.1),
                                reorder=ReorderModel(0.2))
        copy = bundle.fresh()
        assert copy.jitter is bundle.jitter
        assert copy.corruption is bundle.corruption
        assert copy.reorder is bundle.reorder
        assert copy.shaper is not bundle.shaper
        assert copy.shaper.rate_bps == bundle.shaper.rate_bps

    def test_shared_bundle_on_builder_family_gets_fresh_shapers(self):
        net = Network(seed=1)
        for name in ("a", "b", "c"):
            net.add_node(name)
        bundle = LinkConditions(shaper=BandwidthShaper(1e6))
        first = net.connect("a", "b", conditions=bundle)
        second = net.connect("b", "c", conditions=bundle)
        assert first.conditions.shaper is not second.conditions.shaper
        assert first.conditions.shaper is not bundle.shaper

    def test_from_dict_grammar(self):
        bundle = LinkConditions.from_dict({
            "jitter": {"model": "normal", "mean": 0.005, "stddev": 0.002},
            "shaper": {"rate_bps": 2e6, "burst_bytes": 4000.0},
            "corruption": {"probability": 0.1, "max_flips": 2},
            "reorder": {"probability": 0.2, "depth": 3},
        })
        assert isinstance(bundle.jitter, NormalJitter)
        assert bundle.shaper.burst_bytes == 4000.0
        assert bundle.corruption.max_flips == 2
        assert bundle.reorder.depth == 3

    def test_from_dict_empty_means_no_bundle(self):
        assert LinkConditions.from_dict({}) is None
        assert LinkConditions.from_dict({"jitter": None}) is None

    def test_from_dict_rejects_unknown_keys_and_models(self):
        with pytest.raises(ValueError):
            LinkConditions.from_dict({"turbo": {}})
        with pytest.raises(ValueError):
            LinkConditions.from_dict({"jitter": {"model": "pareto"}})

    def test_type_validation(self):
        with pytest.raises(TypeError):
            LinkConditions(jitter="0.01")
        engine = Engine()
        link = Link(engine, "t")
        with pytest.raises(TypeError):
            link.conditions = "nope"


# ----------------------------------------------------------------------
# Determinism and RNG-stream isolation (the PR-7 loss-model audit)
# ----------------------------------------------------------------------
def _run_conditioned_net(seed, condition_link=None):
    """Two lossy links in a chain; optionally install conditions on one
    mid-run.  Returns per-link delivery traces and the links."""
    net = Network(seed=seed)
    for name in ("a", "b", "c"):
        net.add_node(name)
    first = net.connect("a", "b", capacity_bps=1e7, delay=0.002,
                        loss=UniformLoss(0.2), name="first")
    second = net.connect("b", "c", capacity_bps=1e7, delay=0.002,
                         loss=UniformLoss(0.2), name="second")
    traces = {"first": [], "second": []}

    def record(name):
        # normalize the CorruptedFrame sentinel (no __eq__: identity
        # compare would make equal traces look different)
        def on_receive(p, s):
            if isinstance(p, CorruptedFrame):
                p = ("corrupted", p.payload)
            traces[name].append((net.engine.now, p))
        return on_receive
    first.ends[1].attach(record("first"))
    second.ends[1].attach(record("second"))
    for index in range(200):
        net.engine.call_at(index * 0.001, first.ends[0].send, index, 200)
        net.engine.call_at(index * 0.001, second.ends[0].send, index, 200)
    if condition_link is not None:
        bundle = LinkConditions(jitter=UniformJitter(0.003),
                                corruption=CorruptionModel(0.3))
        link = {"first": first, "second": second}[condition_link]
        net.engine.call_at(0.05, setattr, link, "conditions", bundle)
    net.engine.run()
    return traces, first, second


class TestRngStreamIsolation:
    def test_condition_only_link_never_materializes_loss_prng(self):
        """A jitter/shaping-only link keeps the PR-7 lossless fast path:
        the lazy loss PRNG must never be built."""
        net = Network(seed=3)
        net.add_node("a")
        net.add_node("b")
        link = net.connect("a", "b", conditions=LinkConditions(
            jitter=UniformJitter(0.002),
            shaper=BandwidthShaper(1e7)))
        got = []
        link.ends[1].attach(lambda p, s: got.append(p))
        for index in range(50):
            link.ends[0].send(index, 200)
        net.engine.run()
        assert len(got) == 50
        assert link._rng is None            # loss stream never drawn
        assert set(link._cond_rngs) == {"jitter"}   # shaper needs no RNG

    def test_identical_seeds_identical_sequences(self):
        one, _f1, _s1 = _run_conditioned_net(11, condition_link="first")
        two, _f2, _s2 = _run_conditioned_net(11, condition_link="first")
        assert one == two

    def test_installing_conditions_does_not_perturb_other_links(self):
        """The heart of the audit: turning a condition on for link A must
        leave link B's loss draws — and so its whole delivery trace —
        bit-identical."""
        clean, _f0, second_clean = _run_conditioned_net(11)
        storm, _f1, second_storm = _run_conditioned_net(
            11, condition_link="first")
        assert storm["second"] == clean["second"]
        assert (second_storm.frames_dropped_loss
                == second_clean.frames_dropped_loss)

    def test_conditions_do_not_perturb_own_loss_stream(self):
        """Same link, conditions on vs off: the loss stream is a separate
        named stream, so exactly the same frames must be loss-dropped."""
        clean, first_clean, _s0 = _run_conditioned_net(11)
        storm, first_storm, _s1 = _run_conditioned_net(
            11, condition_link="first")
        assert (first_storm.frames_dropped_loss
                == first_clean.frames_dropped_loss)
