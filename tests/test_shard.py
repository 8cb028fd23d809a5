"""The shard subsystem: plan validation, conservative-lookahead rounds,
and the sharded-vs-unsharded equivalence contract.

The headline claim under test: a 2-region split of the canned E6 plant
produces delivery rows **bit-identical** to the unsharded run — same
(node, origin, seq) sets *and the same float timestamps* — because a
boundary frame's arrival time is computed with the same arithmetic the
unsharded link would have used, and the conservative lookahead
guarantees no region ever simulates past a frame it has not yet seen.
"""

import hashlib
import math
import multiprocessing
import os
import threading
import time
from multiprocessing.connection import Connection

import pytest

from repro.experiments.e6_scalability import (FLOOD_SIZES, build_flood_spec,
                                              flood_assignment,
                                              run_flood_scale)
from repro.shard import (LinkSpec, NetworkSpec, RegionPlan, ShardCoordinator,
                         ShardPlanError, ShardRunError, all_nodes_announce,
                         flood_workload, run_sharded, run_unsharded)
from repro.shard import coordinator as coordinator_module


def canned_case(regions=2, hosts=3, shards=2):
    """The canned 2-region split: E6's star-of-stars plant, cut at the
    border1--core backbone link."""
    spec = build_flood_spec(regions, hosts)
    plan = RegionPlan(spec, flood_assignment(regions, hosts, shards))
    return spec, plan, all_nodes_announce(spec.nodes)


# ----------------------------------------------------------------------
# RegionPlan
# ----------------------------------------------------------------------
class TestRegionPlan:
    def test_partition_shape(self):
        spec, plan, _workload = canned_case()
        assert len(plan.regions) == 2
        assert sorted(plan.regions[0].nodes) == sorted(
            ["core", "border0", "h0_0", "h0_1", "h0_2"])
        assert sorted(plan.regions[1].nodes) == sorted(
            ["border1", "h1_0", "h1_1", "h1_2"])
        # exactly one cut link, present as a boundary port on both sides
        assert [link.name for link in plan.boundary] == ["border1--core"]
        assert [port.link.name for port in plan.regions[0].boundary] == \
            ["border1--core"]
        assert plan.regions[0].lookahead == 0.002
        assert plan.regions[1].lookahead == 0.002
        assert plan.lookahead == 0.002
        # internal links stay internal
        internal = {link.name for region in plan.regions
                    for link in region.links}
        assert "border0--core" in internal
        assert "border1--core" not in internal

    def test_zero_delay_boundary_link_rejected(self):
        spec = NetworkSpec(
            nodes=("a", "b"),
            links=(LinkSpec(a="a", b="b", name="ab", delay=0.0),))
        with pytest.raises(ShardPlanError, match="zero propagation delay"):
            RegionPlan(spec, {"a": 0, "b": 1})
        # the same link is fine when the cut does not cross it
        plan = RegionPlan(spec, {"a": 0, "b": 0})
        assert plan.lookahead == math.inf

    def test_lossy_boundary_link_rejected(self):
        spec = NetworkSpec(
            nodes=("a", "b"),
            links=(LinkSpec(a="a", b="b", name="ab", loss=0.1),))
        with pytest.raises(ShardPlanError, match="loss model"):
            RegionPlan(spec, {"a": 0, "b": 1})

    def test_unassigned_node_rejected(self):
        spec = NetworkSpec(nodes=("a", "b"), links=())
        with pytest.raises(ShardPlanError, match="misses"):
            RegionPlan(spec, {"a": 0})

    def test_spec_validation(self):
        with pytest.raises(ShardPlanError, match="duplicate node"):
            RegionPlan(NetworkSpec(nodes=("a", "a"), links=()), {"a": 0})
        bad = NetworkSpec(
            nodes=("a", "b"),
            links=(LinkSpec(a="a", b="z", name="az"),))
        with pytest.raises(ShardPlanError, match="unknown node"):
            RegionPlan(bad, {"a": 0, "b": 0})

    def test_region_ids_normalized(self):
        spec = NetworkSpec(nodes=("a", "b"), links=())
        plan = RegionPlan(spec, {"a": 7, "b": 3})
        assert plan.region_of("b") == 0
        assert plan.region_of("a") == 1

    def test_spec_roundtrip_from_network(self):
        spec, _plan, _workload = canned_case()
        network = spec.build(seed=3)
        assert NetworkSpec.from_network(network) == spec

    def test_region_network_graph_skips_boundary_half_links(self):
        # a shard's local topology only joins nodes of the region: the
        # boundary half is registered, but its far end is a ghost that
        # belongs to no local node
        from repro.shard import ShardEngine
        _spec, plan, workload = canned_case()
        network = ShardEngine(plan.regions[0], workload, seed=0).network
        assert set(network.nodes) == set(plan.regions[0].nodes)
        with pytest.raises(KeyError):
            network.endpoints_of(network.links["border1--core"])
        for name, link in network.links.items():
            if name != "border1--core":
                assert set(network.endpoints_of(link)) <= set(network.nodes)


# ----------------------------------------------------------------------
# Equivalence: the acceptance-criteria contract
# ----------------------------------------------------------------------
class TestEquivalence:
    def test_two_region_split_matches_unsharded_run_exactly(self):
        spec, plan, workload = canned_case()
        reference = run_unsharded(spec, workload, seed=0)
        sharded = run_sharded(plan, workload, seed=0, mode="inline")
        # every system heard every announcement...
        n = len(spec.nodes)
        assert reference["deliveries"] == n * (n - 1)
        # ...and the sharded run reproduces the delivery rows bit for
        # bit, float timestamps included
        assert sharded.rows == reference["rows"]
        assert sharded.node_stats == reference["node_stats"]
        assert sharded.events == reference["events"]
        assert sharded.frames_relayed > 0

    def test_process_mode_matches_inline_mode(self):
        _spec, plan, workload = canned_case()
        inline = run_sharded(plan, workload, seed=0, mode="inline")
        process = run_sharded(plan, workload, seed=0, mode="process")
        assert process.rows == inline.rows
        assert process.traces == inline.traces
        assert process.rounds == inline.rounds
        assert [s["trace_sha256"] for s in process.shards] == \
            [s["trace_sha256"] for s in inline.shards]

    def test_reruns_are_byte_identical(self):
        _spec, plan, workload = canned_case()
        first = run_sharded(plan, workload, seed=0, mode="inline")
        second = run_sharded(plan, workload, seed=0, mode="inline")
        assert first.traces == second.traces

    def test_each_shard_renders_its_trace_once(self, monkeypatch):
        # the summary's trace_sha256 hashes the very text finish
        # returns: one render per shard, not one per use
        renders = []

        class Counted(coordinator_module.ShardEngine):
            def trace_text(self):
                renders.append(self.region.region)
                return super().trace_text()

        monkeypatch.setattr(coordinator_module, "ShardEngine", Counted)
        _spec, plan, workload = canned_case()
        result = run_sharded(plan, workload, seed=0, mode="inline")
        assert sorted(renders) == [0, 1]
        assert [s["trace_sha256"] for s in result.shards] == \
            [hashlib.sha256(text.encode()).hexdigest()
             for text in result.traces]
        renders.clear()
        run_sharded(plan, workload, seed=0, mode="inline",
                    collect_traces=False)
        assert renders == []

    def test_four_way_split_keeps_delivery_counts(self):
        plan4 = RegionPlan(build_flood_spec(4, 2),
                           flood_assignment(4, 2, 4))
        workload4 = all_nodes_announce(plan4.spec.nodes)
        reference = run_unsharded(plan4.spec, workload4, seed=0)
        sharded = run_sharded(plan4, workload4, seed=0, mode="inline")
        assert sharded.rows == reference["rows"]
        assert len(sharded.shards) == 4

    def test_flood_scale_row_invariant_across_shard_counts(self):
        serial = run_flood_scale(3, 2, shards=1)
        sharded = run_flood_scale(3, 2, shards=3)
        for key in ("deliveries", "duplicates", "events", "systems"):
            assert sharded[key] == serial[key], key
        assert sharded["shards"] == 3 and serial["shards"] == 1
        # the sharded scale tier: every system hears every origin
        for tier in ("small", "medium"):
            serial = run_flood_scale(*FLOOD_SIZES[tier], shards=1)
            sharded = run_flood_scale(*FLOOD_SIZES[tier], shards=2)
            assert serial["shards"] == 1 and sharded["shards"] == 2
            assert sharded["deliveries"] == serial["deliveries"]
            assert sharded["events"] == serial["events"]
            assert sharded["frames_relayed"] > 0
            assert serial["deliveries"] == (serial["origins"]
                                            * (serial["systems"] - 1))

    def test_sharded_runs_inside_pool_workers_fall_back_inline(self):
        # a daemonic pool worker cannot spawn region processes; the
        # coordinator must transparently run the same rounds in-process
        from repro.sweeps import Job, SweepRunner
        jobs = [Job("repro.experiments.e6_scalability:run_flood_scale",
                    kwargs={"regions": 2, "hosts_per_region": 2,
                            "shards": count, "seed": 1},
                    group="e6-shard", label=f"x{count}")
                for count in (1, 2)]
        serial, sharded = SweepRunner(workers=2).run(jobs)
        assert sharded["deliveries"] == serial["deliveries"]
        assert sharded["events"] == serial["events"]


# ----------------------------------------------------------------------
# Lookahead edge cases
# ----------------------------------------------------------------------
class TestLookaheadEdges:
    def test_region_with_no_boundary_links_completes_in_one_round(self):
        # two disconnected islands: nothing can ever cross, so both
        # regions drain in a single round
        spec = NetworkSpec(
            nodes=("a", "b", "c", "d"),
            links=(LinkSpec(a="a", b="b", name="ab"),
                   LinkSpec(a="c", b="d", name="cd")))
        plan = RegionPlan(spec, {"a": 0, "b": 0, "c": 1, "d": 1})
        assert plan.regions[0].lookahead == math.inf
        result = run_sharded(plan, all_nodes_announce(spec.nodes),
                             mode="inline")
        assert result.rounds == 1
        assert result.frames_relayed == 0
        assert [row["received"] for row in result.node_stats] == [1, 1, 1, 1]

    def test_frame_arriving_exactly_at_horizon_lands_next_round(self):
        # engineered so a's announcement frame toward b arrives at
        # *exactly* the horizon b runs to in the capture round
        # (floor + lookahead(b)): serialization of 6250 bytes at 1e8
        # bps takes 0.0005 s, c's pending announcement pins the next
        # round floor to exactly that instant, and 0.0005 + 0.001 is
        # then both b's horizon and the frame's arrival time.
        spec = NetworkSpec(
            nodes=("a", "b", "c"),
            links=(LinkSpec(a="a", b="b", name="ab", delay=0.001),
                   LinkSpec(a="a", b="c", name="ac", delay=0.0002)))
        plan = RegionPlan(spec, {"a": 0, "b": 1, "c": 2})
        assert plan.regions[1].lookahead == 0.001
        serialization = 6250 * 8.0 / 1e8
        workload = flood_workload(
            [("a", 0.0), ("c", serialization)], size_bytes=6250)
        results = [run_sharded(plan, workload, seed=0, mode=mode)
                   for mode in ("inline", "inline", "process")]
        first = results[0]
        by_key = {(row["node"], row["origin"]): row["time"]
                  for row in first.rows}
        # delivered despite landing on the horizon, at the exact time
        # the unsharded link would have computed
        assert by_key[("b", "a")] == serialization + 0.001
        assert by_key[("c", "a")] == serialization + 0.0002
        reference = run_unsharded(spec, workload, seed=0)
        assert first.rows == reference["rows"]
        # ... and deterministically: byte-identical reruns, any mode
        assert results[1].traces == first.traces
        assert results[2].traces == first.traces

    def test_until_caps_the_run_and_advances_every_clock(self):
        spec, plan, workload = canned_case()
        capped = run_sharded(plan, workload, seed=0, mode="inline",
                             until=0.0001)
        full = run_sharded(plan, workload, seed=0, mode="inline")
        assert all(s["clock"] == 0.0001 for s in capped.shards)
        assert sum(s["deliveries"] for s in capped.shards) < \
            sum(s["deliveries"] for s in full.shards)

    def test_coordinator_rejects_unknown_mode_and_start_method(self):
        _spec, plan, workload = canned_case()
        with pytest.raises(ValueError, match="unknown mode"):
            ShardCoordinator(plan, workload, mode="threads")
        with pytest.raises(ValueError, match="unknown start method"):
            ShardCoordinator(plan, workload, start_method="Spawn")


# ----------------------------------------------------------------------
# Condition-bearing links through the spec (the PR-9 leftover)
# ----------------------------------------------------------------------
class TestConditionSpecCapture:
    """Interior links carry their condition models through the
    pure-data spec; boundary cut links still refuse them, loudly."""

    def conditioned_spec(self):
        # a--b conditioned interior (region 0), c--d conditioned
        # interior (region 1), b--c the clean cut link
        jitter = {"jitter": {"model": "uniform", "amplitude": 0.0002,
                             "preserve_order": True}}
        shaped = {"shaper": {"rate_bps": 5e7, "burst_bytes": 4096}}
        return NetworkSpec(
            nodes=("a", "b", "c", "d"),
            links=(LinkSpec(a="a", b="b", name="ab", conditions=jitter),
                   LinkSpec(a="b", b="c", name="bc", delay=0.002),
                   LinkSpec(a="c", b="d", name="cd", conditions=shaped)))

    def test_from_network_captures_condition_grammar(self):
        spec = self.conditioned_spec()
        network = spec.build(seed=5)
        captured = NetworkSpec.from_network(network)
        by_name = {link.name: link for link in captured.links}
        assert by_name["ab"].conditions == {
            "jitter": {"model": "uniform", "amplitude": 0.0002,
                       "preserve_order": True}}
        assert by_name["cd"].conditions == {
            "shaper": {"rate_bps": 5e7, "burst_bytes": 4096}}
        assert by_name["bc"].conditions is None
        # and the capture itself rebuilds: spec -> network -> spec is a
        # fixed point for the canonical grammar forms
        assert NetworkSpec.from_network(captured.build(seed=5)) == captured

    def test_conditioned_boundary_link_rejected_with_clear_error(self):
        jitter = {"jitter": {"model": "uniform", "amplitude": 0.0002}}
        spec = NetworkSpec(
            nodes=("a", "b"),
            links=(LinkSpec(a="a", b="b", name="ab", conditions=jitter),))
        with pytest.raises(ShardPlanError,
                           match="carries link conditions"):
            RegionPlan(spec, {"a": 0, "b": 1})
        # the same link is fine when the cut does not cross it
        plan = RegionPlan(spec, {"a": 0, "b": 0})
        assert plan.regions[0].links[0].conditions == jitter

    def test_conditioned_interior_links_sharded_bit_identical(self):
        # the acceptance pin: per-link named RNG streams depend only on
        # (seed, link name), so a conditioned *interior* link draws the
        # same jitter offsets sharded and unsharded — rows, stats, and
        # timestamps all bit-identical
        spec = self.conditioned_spec()
        plan = RegionPlan(spec, {"a": 0, "b": 0, "c": 1, "d": 1})
        workload = all_nodes_announce(spec.nodes)
        reference = run_unsharded(spec, workload, seed=3)
        sharded = run_sharded(plan, workload, seed=3, mode="inline")
        assert sharded.rows == reference["rows"]
        assert sharded.node_stats == reference["node_stats"]

    def test_conditioned_interior_links_survive_process_mode(self):
        spec = self.conditioned_spec()
        plan = RegionPlan(spec, {"a": 0, "b": 0, "c": 1, "d": 1})
        workload = all_nodes_announce(spec.nodes)
        inline = run_sharded(plan, workload, seed=3, mode="inline")
        process = run_sharded(plan, workload, seed=3, mode="process")
        assert process.rows == inline.rows
        assert process.traces == inline.traces


# ----------------------------------------------------------------------
# Worker processes: bounded shutdown, no leaks, and the step channel
# ----------------------------------------------------------------------
class TestWorkerLifecycle:
    def test_idle_workers_close_promptly_under_default_start_method(
            self):
        # a forked worker inherits the coordinator's end of its own
        # pipe, so closing that end never delivers EOF: without the
        # explicit stop command each close() sat out its 10 s join
        # timeout and the worker died by SIGTERM (-15)
        _spec, plan, workload = canned_case()
        context = multiprocessing.get_context()
        proxies = [coordinator_module._ProcessShard(context, region,
                                                    workload, 0)
                   for region in plan.regions]
        try:
            for proxy in proxies:
                proxy.handshake()
        finally:
            started = time.monotonic()
            for proxy in proxies:
                proxy.close()
            elapsed = time.monotonic() - started
        assert elapsed < 2.0
        assert [proxy._proc.exitcode for proxy in proxies] == [0, 0]

    def test_half_built_plant_is_closed_when_a_worker_fails_to_start(
            self, monkeypatch):
        started = []

        class SecondStartFails(coordinator_module._ProcessShard):
            def __init__(self, *args):
                if started:
                    raise OSError("cannot start worker")
                super().__init__(*args)
                started.append(self)

        monkeypatch.setattr(coordinator_module, "_ProcessShard",
                            SecondStartFails)
        # three regions: the coordinator hosts region 0, so regions 1
        # and 2 are the first and second workers
        _spec, plan, workload = canned_case(regions=3, shards=3)
        with pytest.raises(OSError, match="cannot start worker"):
            ShardCoordinator(plan, workload, mode="process").run()
        assert len(started) == 1
        assert not started[0]._proc.is_alive()

    def test_worker_dying_during_construction_names_the_shard(self):
        # the engine build fails inside the fresh interpreter (region
        # 1's announcement lies in its past; the hosted region 0 builds
        # fine); the error crosses the pipe, run() raises it with the
        # shard's number, and close() leaves no child behind
        _spec, plan, _workload = canned_case()
        coordinator = ShardCoordinator(plan, flood_workload([("h1_0", -1.0)]),
                                       mode="process", start_method="spawn")
        with pytest.raises(ShardRunError, match="shard 1 failed"):
            coordinator.run()
        assert not [child for child in multiprocessing.active_children()
                    if child.name.startswith("shard-")]

    @pytest.mark.parametrize("stage", ["build", "step", "finish"])
    def test_hosted_region_failure_names_the_shard(self, monkeypatch,
                                                   stage):
        # region 0 runs in the coordinator: a failure building,
        # stepping or finishing it is the same ShardRunError a worker's
        # would be, and the worker already started is still stopped.
        # The finish stage runs the 10x20 every-node flood, whose
        # worker reply (about 21,000 delivery rows) is far larger than
        # the pipe's buffers: that worker is told to finish before
        # region 0 renders, is still writing its reply when region 0
        # fails, and must not hold the failure up
        class Fails(coordinator_module.ShardEngine):
            def run_to(self, horizon):
                if stage == "step" and self.region.region == 0:
                    raise RuntimeError("engine broke")
                return super().run_to(horizon)

            def finish(self, want_rows, want_traces):
                if stage == "finish" and self.region.region == 0:
                    raise RuntimeError("engine broke")
                return super().finish(want_rows, want_traces)

        if stage == "finish":
            spec = build_flood_spec(10, 20)
            plan = RegionPlan(spec, flood_assignment(10, 20, 2))
            workload = all_nodes_announce(spec.nodes)
        else:
            _spec, plan, workload = canned_case()
        if stage == "build":
            workload = flood_workload([("h0_0", -1.0)])
        monkeypatch.setattr(coordinator_module, "ShardEngine", Fails)
        coordinator = ShardCoordinator(plan, workload, mode="process")
        started = time.monotonic()
        with pytest.raises(ShardRunError, match="shard 0 failed"):
            coordinator.run()
        assert time.monotonic() - started < 3.0
        assert not [child for child in multiprocessing.active_children()
                    if child.name.startswith("shard-")]

    def test_process_mode_starts_one_worker_per_region_but_the_first(
            self, monkeypatch):
        started = []

        class Recorded(coordinator_module._ProcessShard):
            def __init__(self, *args):
                super().__init__(*args)
                started.append(self)

        monkeypatch.setattr(coordinator_module, "_ProcessShard", Recorded)
        for regions in (2, 4):
            started.clear()
            _spec, plan, workload = canned_case(regions=regions, hosts=2,
                                                shards=regions)
            result = run_sharded(plan, workload, seed=0, mode="process")
            assert len(result.shards) == regions
            assert [proxy.region for proxy in started] == \
                list(range(1, regions))
            assert not any(proxy._proc.is_alive() for proxy in started)
        assert not [child for child in multiprocessing.active_children()
                    if child.name.startswith("shard-")]


class _ThreadContext:
    """A stand-in multiprocessing context whose "process" is a thread on
    the far end of a real pipe, so both real endpoints of the step
    channel run in this test process."""

    Pipe = staticmethod(multiprocessing.Pipe)

    @staticmethod
    def Process(target, args, name, daemon):
        # _ProcessShard closes its copy of the worker's end after
        # start(); a thread shares that object, so it gets a duplicate
        conn = Connection(os.dup(args[0].fileno()))
        return threading.Thread(target=target, args=(conn,) + args[1:],
                                name=name, daemon=daemon)


class _EchoEngine:
    """Returns from ``run_to`` exactly the frames it was injected."""

    clock = 0.0

    def __init__(self, region, workload, seed):
        self._frames = []

    def next_event_time(self):
        return None

    def inject(self, frames):
        self._frames = frames

    def run_to(self, horizon):
        return self._frames


def megabyte_batch():
    """1,024 boundary frames of 1,000 payload bytes: far more than a
    pipe buffer holds, so a send_bytes of it blocks mid-buffer."""
    payload = b"x" * 1000      # opaque to the envelope and the pipe
    return [(0.001 * index, "border1--core", payload, 1000)
            for index in range(1024)]


class TestStepChannel:
    def test_batch_far_larger_than_the_pipe_buffer_crosses_intact(
            self, monkeypatch):
        # 1 MiB each way through a 64 KiB pipe: send_bytes must block
        # and resume, not truncate, and both ends must agree on framing
        monkeypatch.setattr(coordinator_module, "ShardEngine", _EchoEngine)
        _spec, plan, workload = canned_case()
        frames = megabyte_batch()
        proxy = coordinator_module._ProcessShard(
            _ThreadContext(), plan.regions[0], workload, 0)
        try:
            assert proxy.handshake() is None
            proxy.send_step(None, frames)
            assert proxy.relay_bytes > 1 << 20
            echoed, clock, nxt = proxy.recv_step()
            assert echoed == frames
            assert (clock, nxt) == (0.0, None)
            assert proxy.relay_bytes > 2 << 20
            proxy.send_step(None, [])           # empty: no buffer follows
            assert proxy.recv_step() == ([], 0.0, None)
        finally:
            proxy.close()
        assert not proxy._proc.is_alive()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the echo engine reaches the worker by fork inheritance")
    def test_worker_killed_between_header_and_buffer_names_the_shard(
            self, monkeypatch):
        # regression: recv_bytes()/send() sat outside the wrapper that
        # turns a dead pipe into a ShardRunError, so a worker lost
        # mid-reply surfaced as a bare EOFError.  1 MiB cannot fit the
        # pipe buffer: once the header is readable the worker is
        # blocked inside send_bytes, and killing it there leaves the
        # announced buffer cut short.
        monkeypatch.setattr(coordinator_module, "ShardEngine", _EchoEngine)
        _spec, plan, workload = canned_case()
        frames = megabyte_batch()
        proxy = coordinator_module._ProcessShard(
            multiprocessing.get_context("fork"), plan.regions[1], workload, 0)
        try:
            proxy.handshake()
            proxy.send_step(None, frames)
            assert proxy._conn.poll(30)         # the "stepped" header
            proxy._proc.kill()
            proxy._proc.join(timeout=10)
            assert not proxy._proc.is_alive()
            with pytest.raises(ShardRunError,
                               match="shard 1 worker died"):
                proxy.recv_step()
            # and a command written to the dead worker's pipe
            with pytest.raises(ShardRunError,
                               match="shard 1 worker died"):
                proxy.send_step(None, frames)
        finally:
            proxy.close()
