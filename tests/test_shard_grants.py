"""The per-channel grant protocol: safety properties, quiet-cut
batching, and the coordinator cap/livelock bugfixes.

The two properties proved in :func:`repro.shard.plan.grant_horizons`'s
docstring are pinned here over randomized channel graphs:

1. **Dominance** — every per-channel grant is ≥ the old global-min
   horizon (``floor + min incoming delay``), so the new protocol never
   grants *less* than PR 5 did (safety is inherited, progress is not
   lost).
2. **No livelock** — some region with the globally earliest activity
   always holds a grant covering that activity, so every round steps at
   least one region that does real work.

The round-count regression pins the point of the whole change: on the
sparse-traffic 10×3 stateful plant the per-channel protocol does ≥ 3×
fewer boundary steps than global-min while staying bit-identical.
"""

import math
import random

import pytest

from repro.experiments.e6_scalability import (build_flood_spec,
                                              build_sparse_stateful_workload,
                                              build_stateful_workload,
                                              flood_assignment,
                                              run_stateful_scale)
from repro.shard import (PROTOCOLS, LinkSpec, NetworkSpec, RegionPlan,
                         ShardCoordinator, ShardRunError, all_nodes_announce,
                         flood_workload, grant_horizons, run_sharded,
                         run_unsharded, run_unsharded_stateful)
from repro.sweeps import stable_row


def random_channel_graph(rng, regions):
    """A random directed channel graph with positive delays; channels
    come in symmetric pairs (cut links are bidirectional) but with
    independent random delays the planner never produces — the
    properties must hold for the pure function regardless."""
    channels = {}
    for a in range(regions):
        for b in range(a + 1, regions):
            if rng.random() < 0.6:
                channels[(a, b)] = rng.choice([0.001, 0.002, 0.0007, 0.05])
                channels[(b, a)] = rng.choice([0.001, 0.002, 0.0007, 0.05])
    return channels


class TestGrantProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_every_grant_dominates_the_global_min_horizon(self, seed):
        rng = random.Random(seed)
        regions = rng.randint(2, 8)
        channels = random_channel_graph(rng, regions)
        ents = [rng.choice([0.0, 0.1, 1.5, 7.25, math.inf])
                for _ in range(regions)]
        grants = grant_horizons(ents, channels)
        floor = min(ents)
        for region in range(regions):
            incoming = [delay for (_src, dst), delay in channels.items()
                        if dst == region]
            if not incoming:
                assert math.isinf(grants[region])
                continue
            if math.isinf(floor):
                assert math.isinf(grants[region])
                continue
            old_horizon = floor + min(incoming)
            assert grants[region] >= old_horizon, (
                f"seed {seed} region {region}: per-channel grant "
                f"{grants[region]} below the global-min horizon "
                f"{old_horizon}")

    @pytest.mark.parametrize("seed", range(20))
    def test_some_earliest_region_is_always_granted_its_work(self, seed):
        # no livelock: the argmin-ent region's grant strictly exceeds
        # its ent (its own activity never blocks on itself, and every
        # incoming bound is ≥ floor + a positive delay)
        rng = random.Random(seed)
        regions = rng.randint(2, 8)
        channels = random_channel_graph(rng, regions)
        ents = [rng.choice([0.0, 0.1, 1.5, 7.25]) for _ in range(regions)]
        grants = grant_horizons(ents, channels)
        floor = min(ents)
        earliest = min(range(regions), key=lambda r: ents[r])
        assert grants[earliest] > floor

    def test_until_clamps_every_grant(self):
        channels = {(0, 1): 0.002, (1, 0): 0.002}
        grants = grant_horizons([0.0, 5.0], channels, until=1.0)
        assert all(g <= 1.0 for g in grants)

    def test_isolated_region_gets_an_infinite_grant(self):
        # no incoming channels: nothing can ever reach it, so it may
        # run to quiescence in one hop
        channels = {(0, 1): 0.002}     # 1 receives, 0 never does
        grants = grant_horizons([0.0, 0.0], channels)
        assert math.isinf(grants[0])
        assert grants[1] == 0.002

    def test_grants_on_a_real_plan_dominate_the_plan_lookahead(self):
        spec = build_flood_spec(4, 2)
        plan = RegionPlan(spec, flood_assignment(4, 2, 4))
        ents = [0.1, 0.2, 0.3, 0.4]
        grants = grant_horizons(ents, plan.channels)
        floor = min(ents)
        for index, region in enumerate(plan.regions):
            assert grants[index] >= floor + region.lookahead


class TestQuietCutBatching:
    def test_sparse_stateful_plant_needs_3x_fewer_boundary_steps(self):
        # the headline regression: sparse traffic (stretched enrollment
        # schedule, slow keepalives) leaves most regions idle most of
        # the time; global-min steps all 10 regions every round anyway,
        # per-channel steps only the work set — and both stay
        # bit-identical to the unsharded reference
        spec = build_flood_spec(10, 3)
        workload = build_sparse_stateful_workload(10, 3)
        until = workload["until"]
        plan = RegionPlan(spec, flood_assignment(10, 3, 10))
        reference = run_unsharded_stateful(spec, workload, seed=0,
                                           until=until)
        new = run_sharded(plan, workload, seed=0, mode="inline", until=until)
        old = run_sharded(plan, workload, seed=0, mode="inline",
                          protocol="global-min", until=until)
        assert new.rows == reference["rows"]
        assert new.node_stats == reference["node_stats"]
        assert old.rows == reference["rows"]
        # global-min stepped every region every round, by construction
        assert old.steps == old.rounds * len(plan.regions)
        assert old.steps >= 3 * new.steps, (
            f"quiet-cut batching regressed: global-min {old.steps} "
            f"boundary steps vs per-channel {new.steps}")
        assert new.rounds <= old.rounds

    def test_dense_stateful_plant_still_batches(self):
        # even the dense default schedule sheds ≥ 2× of the boundary
        # steps (the flood-coupled star keeps every round busy, but
        # never with all regions at once)
        spec = build_flood_spec(3, 2)
        workload = build_stateful_workload(3, 2)
        until = workload["until"]
        plan = RegionPlan(spec, flood_assignment(3, 2, 2))
        new = run_sharded(plan, workload, seed=0, mode="inline", until=until)
        old = run_sharded(plan, workload, seed=0, mode="inline",
                          protocol="global-min", until=until)
        assert new.rows == old.rows
        assert old.steps > new.steps

    def test_result_reports_protocol_and_per_region_steps(self):
        spec = build_flood_spec(2, 2)
        plan = RegionPlan(spec, flood_assignment(2, 2, 2))
        result = run_sharded(plan, all_nodes_announce(spec.nodes), seed=0,
                             mode="inline")
        assert result.protocol == "per-channel"
        assert len(result.region_steps) == len(plan.regions)
        assert result.steps == sum(result.region_steps)
        assert 0 < result.steps <= result.rounds * len(plan.regions)

    def test_unknown_protocol_rejected(self):
        spec = build_flood_spec(2, 2)
        plan = RegionPlan(spec, flood_assignment(2, 2, 2))
        with pytest.raises(ValueError, match="unknown protocol"):
            ShardCoordinator(plan, all_nodes_announce(spec.nodes),
                             protocol="optimistic")


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
        assert result.rows == reference["rows"]   # nothing delivered yet
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
        # quiet-cut batching makes a capped run over a silent stretch
        # cost zero rounds — max_rounds=1 must never trip on quiet time
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

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_counters_agree_in_any_mode(self, protocol):
        spec = build_flood_spec(3, 2)
        workload = build_stateful_workload(3, 2)
        plan = RegionPlan(spec, flood_assignment(3, 2, 2))
        inline, first, second = (
            run_sharded(plan, workload, seed=0, mode=mode, protocol=protocol,
                        until=workload["until"])
            for mode in ("inline", "process", "process"))
        for name in self.COUNTERS:
            assert (getattr(first, name) == getattr(second, name)
                    == getattr(inline, name)), name
        assert inline.grants == inline.rounds > 0   # one per round
        assert inline.relay_batches > 0
        assert inline.relay_bytes == 0              # inline: nothing packed
        assert first.relay_bytes == second.relay_bytes > 0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_process_rows_reproduce(self, protocol):
        first, second = (
            run_stateful_scale(3, 2, shards=2, seed=0, mode="process",
                               protocol=protocol)
            for _ in range(2))
        assert stable_row(first) == stable_row(second)
