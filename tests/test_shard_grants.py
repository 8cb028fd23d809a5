"""The round rule — equal windows, idle regions sit out — with its
safety and liveness properties, the step-count regression, and the
coordinator cap/livelock bugfixes.

:func:`repro.shard.coordinator.grant_round` is the whole rule, so its
properties are pinned on the pure function over randomized rounds:

1. **Equal windows** — every grant is exactly the global-min horizon
   ``floor + lookahead(region)`` (clamped to ``until``): never below it
   (no progress is given away), never above it (a frame emitted at
   ``floor`` arrives no sooner).
2. **No livelock** — the region holding the globally earliest activity
   is always in the work set, so every round steps at least one region
   that does real work.
3. **Idle regions sit out** — the work set is exactly the regions with
   activity inside their window; a drained region is never in it.

The end-to-end half runs the 10×3 stateful plants at 10 shards: rows,
node stats and RIBs bit-identical to the unsharded build, with far
fewer boundary steps than rounds × regions.
"""

import math
import random

import pytest

from repro.experiments.e6_scalability import (build_flood_spec,
                                              build_sparse_stateful_workload,
                                              build_stateful_workload,
                                              flood_assignment,
                                              run_stateful_scale)
from repro.shard import (NetworkSpec, RegionPlan, ShardCoordinator,
                         ShardRunError, all_nodes_announce, flood_workload,
                         run_sharded, run_unsharded)
from repro.shard import coordinator as coordinator_module
from repro.shard.coordinator import grant_round
from repro.sim.plant import LinkSpec
from repro.sweeps import stable_row


def random_round(rng):
    """One round's inputs: per-region earliest activity (some regions
    drained, never all — the loop ends before granting then) and
    per-region lookaheads (``inf``: a region without a cut)."""
    regions = rng.randint(2, 8)
    ents = [rng.choice([0.0, 0.1, 0.1005, 0.102, 1.5, 7.25, math.inf])
            for _ in range(regions)]
    if all(math.isinf(ent) for ent in ents):
        ents[rng.randrange(regions)] = 0.1
    lookaheads = [rng.choice([0.0007, 0.001, 0.002, 0.05, math.inf])
                  for _ in range(regions)]
    return ents, lookaheads


class TestGrantProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_every_grant_dominates_the_global_min_horizon(self, seed):
        # ... and is dominated by it: floor + the region's own minimum
        # cut delay is the widest window that is safe without knowing
        # more than the floor, and the rule grants exactly that
        ents, lookaheads = random_round(random.Random(seed))
        floor = min(ents)
        horizons, working = grant_round(floor, ents, lookaheads)
        for region, horizon in enumerate(horizons):
            if math.isinf(lookaheads[region]):
                assert math.isinf(horizon)
            else:
                assert horizon == floor + lookaheads[region]
        # the work set is exactly the regions active inside their window
        assert working == [region for region, ent in enumerate(ents)
                           if not math.isinf(ent)
                           and ent <= horizons[region]]

    @pytest.mark.parametrize("seed", range(20))
    def test_some_earliest_region_is_always_granted_its_work(self, seed):
        # no livelock: the argmin-ent region's grant strictly exceeds
        # its ent (lookaheads are positive), capped or not — the loop
        # only grants while floor <= until
        rng = random.Random(seed)
        ents, lookaheads = random_round(rng)
        floor = min(ents)
        earliest = ents.index(floor)
        horizons, working = grant_round(floor, ents, lookaheads)
        assert horizons[earliest] > floor
        assert earliest in working
        until = floor + rng.choice([0.0, 0.0005, 10.0])
        _horizons, working = grant_round(floor, ents, lookaheads, until)
        assert earliest in working

    def test_until_clamps_every_grant(self):
        horizons, working = grant_round(0.0, [0.0, 5.0], [0.002, math.inf],
                                        until=1.0)
        assert horizons == [0.002, 1.0]
        assert working == [0]

    def test_isolated_region_gets_an_infinite_grant(self):
        # no cut link: nothing can ever reach it, so it may run to
        # quiescence in one hop
        horizons, working = grant_round(0.0, [0.0, 0.0], [math.inf, 0.002])
        assert math.isinf(horizons[0])
        assert horizons[1] == 0.002
        assert working == [0, 1]

    def test_drained_region_is_never_stepped(self):
        # the trap: a drained region without a cut has ent == horizon
        # == inf, and inf <= inf holds
        horizons, working = grant_round(0.25, [0.25, math.inf],
                                        [math.inf, math.inf])
        assert horizons == [math.inf, math.inf]
        assert working == [0]
        # end to end: two regions with no link between them, one silent
        spec = NetworkSpec(nodes=("a", "b"), links=())
        plan = RegionPlan(spec, {"a": 0, "b": 1})
        result = run_sharded(plan, flood_workload([("a", 0.25)]), seed=0,
                             mode="inline")
        assert result.region_steps == [1, 0]

    def test_grants_on_a_real_plan_dominate_the_plan_lookahead(self):
        spec = build_flood_spec(4, 2)
        plan = RegionPlan(spec, flood_assignment(4, 2, 4))
        ents = [0.1, 0.2, 0.3, 0.4]
        horizons, working = grant_round(
            min(ents), ents, [region.lookahead for region in plan.regions])
        for index, region in enumerate(plan.regions):
            assert horizons[index] == 0.1 + region.lookahead
            assert horizons[index] >= 0.1 + plan.lookahead
        assert working == [0]


def stateful_plant(sparse):
    """The 10×3 stateful plant, one region per shard."""
    spec = build_flood_spec(10, 3)
    build = build_sparse_stateful_workload if sparse else build_stateful_workload
    return spec, RegionPlan(spec, flood_assignment(10, 3, 10)), build(10, 3)


class TestOneRule:
    def test_idle_regions_sit_out_on_the_sparse_plant(self):
        # the headline regression: sparse traffic (stretched enrollment
        # schedule, slow keepalives) leaves most regions idle most of
        # the time, and an idle region is not contacted at all — while
        # the outcome stays bit-identical to the unsharded reference
        spec, plan, workload = stateful_plant(sparse=True)
        until = workload["until"]
        reference = run_unsharded(spec, workload, seed=0, until=until)
        result = run_sharded(plan, workload, seed=0, mode="inline",
                             until=until)
        assert result.rows == reference.rows
        assert result.node_stats == reference.node_stats
        assert result.events == reference.events
        assert result.steps <= result.rounds * len(plan.regions) / 2.5, (
            f"idle regions are being stepped: {result.steps} boundary "
            f"steps over {result.rounds} rounds")
        # the backbone region works far more often than a leaf region
        assert len(set(result.region_steps)) > 1
        assert max(result.region_steps) <= result.rounds

    def test_dense_plant_still_skips_idle_regions(self):
        spec, plan, workload = stateful_plant(sparse=False)
        until = workload["until"]
        reference = run_unsharded(spec, workload, seed=0, until=until)
        result = run_sharded(plan, workload, seed=0, mode="inline",
                             until=until)
        assert result.rows == reference.rows
        assert result.node_stats == reference.node_stats
        assert result.events == reference.events
        assert result.steps < result.rounds * len(plan.regions) / 2

    def test_every_window_in_a_round_opens_at_the_same_floor(
            self, monkeypatch):
        # equal windows, observed from the proxies: every horizon the
        # coordinator hands out in one round is that round's floor plus
        # the region's own lookahead.  The floor is recoverable from the
        # stepped regions alone (the earliest region is always stepped).
        # Every node its own region: the core's cuts are all 2 ms, every
        # other region has a 1 ms cut, so lookaheads differ.
        rounds, sending = [], []

        class RecordingShard(coordinator_module._InlineShard):
            def __init__(self, region, workload, seed):
                super().__init__(region, workload, seed)
                self.lookahead = region.lookahead

            def send_step(self, horizon, frames):
                nxt = self._shard.next_event_time()
                ent = min([frame[0] for frame in frames]
                          + [math.inf if nxt is None else nxt])
                sending.append((horizon, ent, self.lookahead))
                super().send_step(horizon, frames)

            def recv_step(self):
                if sending:         # first reply: the round's sends are over
                    rounds.append(sending[:])
                    sending.clear()
                return super().recv_step()

        monkeypatch.setattr(coordinator_module, "_InlineShard",
                            RecordingShard)
        spec = build_flood_spec(3, 4)
        workload = build_stateful_workload(3, 4)
        plan = RegionPlan(spec, {node: region
                                 for region, node in enumerate(spec.nodes)})
        assert len({region.lookahead for region in plan.regions}) == 2
        until = workload["until"]
        result = run_sharded(plan, workload, seed=0, mode="inline",
                             until=until)
        assert len(rounds) == result.rounds + 1     # + the cap-advance
        for stepped in rounds[:result.rounds]:
            floor = min(ent for _horizon, ent, _lookahead in stepped)
            for horizon, ent, lookahead in stepped:
                assert horizon == min(floor + lookahead, until)
                assert ent <= horizon

    def test_result_reports_per_region_steps(self):
        spec = build_flood_spec(2, 2)
        plan = RegionPlan(spec, flood_assignment(2, 2, 2))
        result = run_sharded(plan, all_nodes_announce(spec.nodes), seed=0,
                             mode="inline")
        assert not hasattr(result, "protocol")
        assert len(result.region_steps) == len(plan.regions)
        assert result.steps == sum(result.region_steps)
        assert 0 < result.steps <= result.rounds * len(plan.regions)

    def test_there_is_no_protocol_argument(self):
        spec = build_flood_spec(2, 2)
        plan = RegionPlan(spec, flood_assignment(2, 2, 2))
        workload = all_nodes_announce(spec.nodes)
        with pytest.raises(TypeError):
            ShardCoordinator(plan, workload, protocol="global-min")
        with pytest.raises(TypeError):
            run_sharded(plan, workload, protocol="per-channel")


class TestCapAdvance:
    """Satellite bugfix: the final cap-advance step used to discard any
    frames it received; it now proves it cannot receive any."""

    def plant(self):
        spec = NetworkSpec(
            nodes=("a", "b"),
            links=(LinkSpec(a="a", b="b", name="ab", delay=0.001),))
        plan = RegionPlan(spec, {"a": 0, "b": 1})
        return spec, plan

    def test_frame_emitted_exactly_at_until_is_relayed_not_dropped(self):
        # the announcement's wire departure — the boundary-frame
        # emission — lands on the cap to the last float digit: the
        # event executes in the main loop (floor == until is not past
        # the cap), the frame is relayed, and its delivery correctly
        # stays beyond the cap, exactly like the unsharded run
        spec, plan = self.plant()
        serialization = 6250 * 8.0 / 1e8
        until = 0.25 + serialization
        workload = flood_workload([("a", 0.25)], size_bytes=6250)
        result = run_sharded(plan, workload, seed=0, mode="inline",
                             until=until)
        reference = run_unsharded(spec, workload, seed=0, until=until)
        assert result.frames_relayed == 1
        assert all(s["clock"] == until for s in result.shards)
        assert result.rows == reference.rows   # nothing delivered yet
        # sanity: without the cap the frame lands at until + delay
        full = run_sharded(plan, workload, seed=0, mode="inline")
        assert [(row["node"], row["time"]) for row in full.rows] == \
            [("b", until + 0.001)]

    def test_cap_advance_refuses_stray_frames(self, monkeypatch):
        # force the invariant violation the assert exists for: with the
        # cap before the first event the only step is the cap-advance,
        # and a proxy that returns a frame there must be refused, not
        # silently dropped (the pre-fix behavior)
        from repro.shard import coordinator as coordinator_module
        spec, plan = self.plant()
        workload = flood_workload([("a", 0.25)])

        class StrayShard(coordinator_module._InlineShard):
            def recv_step(self):
                out, clock, nxt = super().recv_step()
                return out + [(9.9, "ab", None, 0)], clock, nxt

        monkeypatch.setattr(coordinator_module, "_InlineShard", StrayShard)
        with pytest.raises(ShardRunError, match="cap-advance"):
            run_sharded(plan, workload, seed=0, mode="inline", until=1e-4)

    def test_quiet_cap_advance_emits_nothing(self):
        # the honest version of the same run: cap before the first
        # event, main loop never executes, cap-advance alone moves
        # every clock to the cap without producing frames
        _spec, plan = self.plant()
        workload = flood_workload([("a", 0.25)])
        result = run_sharded(plan, workload, seed=0, mode="inline",
                             until=1e-4)
        assert result.rounds == 0
        assert result.frames_relayed == 0
        assert all(s["clock"] == 1e-4 for s in result.shards)


class TestLivelockDiagnostics:
    """Satellite bugfix: ``max_rounds`` exhaustion now reports
    per-region clocks, inbox depths, and next-event times."""

    def test_report_names_every_region_with_clock_inbox_and_next(self):
        spec = build_flood_spec(2, 2)
        plan = RegionPlan(spec, flood_assignment(2, 2, 2))
        coordinator = ShardCoordinator(plan, all_nodes_announce(spec.nodes),
                                       mode="inline", max_rounds=2)
        with pytest.raises(ShardRunError) as excinfo:
            coordinator.run()
        message = str(excinfo.value)
        assert "no convergence after 2 rounds" in message
        for index in range(len(plan.regions)):
            assert f"region {index}:" in message
        assert "clock=" in message
        assert "next_event=" in message
        assert "inbox=" in message

    def test_all_quiet_plant_cannot_exhaust_rounds(self):
        # a capped run over a silent stretch costs zero rounds (the
        # floor lies beyond the cap) — max_rounds=1 must never trip on
        # quiet time
        spec = build_flood_spec(2, 2)
        plan = RegionPlan(spec, flood_assignment(2, 2, 2))
        workload = flood_workload([("core", 50.0)])   # nothing before 50 s
        coordinator = ShardCoordinator(plan, workload, mode="inline",
                                       max_rounds=1)
        result = coordinator.run(until=49.0)
        assert result.rounds == 0
        assert all(s["clock"] == 49.0 for s in result.shards)


class TestSchedulingIndependence:
    """A run's counters are a function of plan + workload + seed, never
    of how the OS schedules the workers: the barrier loop consumes
    replies in region order, so process mode reports exactly what
    inline mode reports — which is what lets the row be pinned."""

    COUNTERS = ("rounds", "grants", "region_steps", "relay_batches",
                "frames_relayed")

    def test_counters_agree_in_any_mode(self):
        spec = build_flood_spec(3, 2)
        workload = build_stateful_workload(3, 2)
        plan = RegionPlan(spec, flood_assignment(3, 2, 2))
        inline, first, second = (
            run_sharded(plan, workload, seed=0, mode=mode,
                        until=workload["until"])
            for mode in ("inline", "process", "process"))
        for name in self.COUNTERS:
            assert (getattr(first, name) == getattr(second, name)
                    == getattr(inline, name)), name
        assert inline.grants == inline.rounds > 0   # one per round
        assert inline.relay_batches > 0
        assert inline.relay_bytes == 0              # inline: nothing packed
        assert first.relay_bytes == second.relay_bytes > 0

    def test_process_rows_reproduce(self):
        first, second = (
            run_stateful_scale(3, 2, shards=2, seed=0, mode="process")
            for _ in range(2))
        assert stable_row(first) == stable_row(second)
