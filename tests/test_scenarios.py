"""Scenario harness: spec validation, generator coverage, fault-injector
behavior, and the determinism contract (same seed + same spec ⇒
byte-identical trace and metrics)."""

import json

import pytest

from repro.scenarios import (CANNED, FAULT_KINDS, FaultSpec, Scenario,
                             ScenarioRunner, SpecError, TopologySpec,
                             WorkloadSpec, canned, fault_storm, generate_specs)

SEED = 7
GENERATED = generate_specs(SEED, 20)


def _chain_scenario(count=3, faults=(), duration=8.0, workloads=None):
    return Scenario(
        name="t-chain",
        topology=TopologySpec(family="chain", params={"count": count}),
        workloads=workloads or [
            WorkloadSpec(kind="echo", client="n0", server=f"n{count - 1}",
                         period=0.05, count=100, start=1.0)],
        faults=list(faults),
        duration=duration)


class TestSpec:
    def test_round_trips_through_dict(self):
        for make in CANNED.values():
            spec = make()
            clone = Scenario.from_dict(
                json.loads(json.dumps(spec.to_dict())))
            assert clone.to_dict() == spec.to_dict()

    def test_generated_specs_round_trip(self):
        for spec in GENERATED[:5]:
            clone = Scenario.from_dict(
                json.loads(json.dumps(spec.to_dict())))
            assert clone.to_dict() == spec.to_dict()

    def test_unknown_family_rejected(self):
        with pytest.raises(SpecError):
            TopologySpec(family="torus").validate()

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(SpecError):
            FaultSpec(kind="meteor", target="n0--n1").validate()

    def test_partition_target_must_be_group(self):
        with pytest.raises(SpecError):
            FaultSpec(kind="partition", target="n0").validate()

    def test_workload_endpoint_must_exist(self):
        scenario = _chain_scenario()
        scenario.workloads[0].server = "nope"
        with pytest.raises(SpecError):
            ScenarioRunner(scenario).run("rina")

    def test_scenario_needs_a_workload(self):
        with pytest.raises(SpecError):
            Scenario(workloads=[]).validate()


class TestGenerator:
    def test_batch_covers_every_injector(self):
        kinds = {fault.kind for spec in GENERATED for fault in spec.faults}
        assert kinds == set(FAULT_KINDS)

    def test_same_seed_same_specs(self):
        again = generate_specs(SEED, 20)
        assert [s.to_dict() for s in again] == [s.to_dict()
                                               for s in GENERATED]

    def test_different_seeds_differ(self):
        other = generate_specs(SEED + 1, 5)
        assert ([s.to_dict() for s in other]
                != [s.to_dict() for s in GENERATED[:5]])

    def test_generated_specs_are_valid_and_frozen(self):
        for spec in GENERATED:
            assert spec.topology.family == "explicit"
            spec.validate(spec.topology.nodes)

    def test_crash_targets_avoid_workload_endpoints(self):
        for spec in GENERATED:
            endpoints = {w.client for w in spec.workloads} | {
                w.server for w in spec.workloads}
            for fault in spec.faults:
                if fault.kind == "node-crash":
                    assert fault.target not in endpoints


class TestDeterminism:
    """Same seed + same spec ⇒ byte-identical trace and metrics, for 20
    generator-sampled specs covering every fault injector."""

    @pytest.mark.parametrize("index", range(len(GENERATED)),
                             ids=[s.name for s in GENERATED])
    def test_rina_trace_is_reproducible(self, index):
        spec = GENERATED[index]
        first = ScenarioRunner(spec, seed=SEED)
        metrics_a = first.run("rina")
        second = ScenarioRunner(spec, seed=SEED)
        metrics_b = second.run("rina")
        assert metrics_a == metrics_b
        assert first.trace == second.trace

    @pytest.mark.parametrize("index", range(0, len(GENERATED), 7))
    def test_ip_trace_is_reproducible(self, index):
        spec = GENERATED[index]
        first = ScenarioRunner(spec, seed=SEED)
        metrics_a = first.run("ip")
        second = ScenarioRunner(spec, seed=SEED)
        metrics_b = second.run("ip")
        assert metrics_a == metrics_b
        assert first.trace == second.trace

    def test_every_sweep_cell_is_deterministic(self):
        """The scenario sweep: fault-storm, the four condition families
        and four generated specs, each run twice on both stacks."""
        from repro.scenarios import determinism_jobs
        from repro.sweeps import SweepRunner
        families = TestConditionFamilies.NAMES
        specs = ([fault_storm()] + [CANNED[name]() for name in families]
                 + generate_specs(11, 4))
        rows = SweepRunner(workers=1).run(determinism_jobs(specs, seed=11))
        assert len(rows) == 2 * len(specs)
        assert all(row["trace_sha256"] for row in rows)
        assert all(row["deterministic"] for row in rows)
        assert json.loads(json.dumps(rows)) == rows
        by = {(row["scenario"], row["stack"]): row for row in rows}
        assert {(name, stack) for name in families
                for stack in ("rina", "ip")} <= set(by)
        # the recursive stack rides out the storm at least as well as the
        # baseline (reliable flows recover; UDP probes do not)
        for name in ("fault-storm", "corruption-storm"):
            delivered = {stack: int(by[name, stack]["echo"].split("/")[0])
                         for stack in ("rina", "ip")}
            assert delivered["rina"] >= delivered["ip"], name

    def test_different_seed_changes_the_trace(self):
        spec = fault_storm()
        first = ScenarioRunner(spec, seed=1)
        first.run("rina")
        second = ScenarioRunner(spec, seed=2)
        second.run("rina")
        assert first.trace != second.trace


class TestFaultInjectors:
    def test_link_flap_outage_then_recovery(self):
        fault = FaultSpec(kind="link-flap", target="n0--n1", at=2.0,
                          duration=1.0)
        runner = ScenarioRunner(_chain_scenario(faults=[fault]), seed=SEED)
        metrics = runner.run("rina")
        outage = metrics["outages"][fault.label()]
        assert outage >= 0.5                       # the hole is visible
        assert metrics["echo_delivered"] == 100    # reliable flow recovers

    def test_link_degrade_restores_the_original_medium(self):
        fault = FaultSpec(kind="link-degrade", target="n0--n1", at=2.0,
                          duration=1.0, peak_loss=0.8, delay_factor=4.0)
        scenario = _chain_scenario(faults=[fault])
        runner = ScenarioRunner(scenario, seed=SEED)
        metrics = runner.run("rina")
        link = runner.network.link_between("n0", "n1")
        from repro.sim.link import NoLoss
        assert isinstance(link.loss, NoLoss)       # originals restored
        assert link.delay == pytest.approx(0.001)
        phases = [f for _t, kind, f in runner.network.tracer.events("fault")
                  if f.get("fault") == "link-degrade"]
        assert any(p["phase"] == "restored" for p in phases)
        assert metrics["echo_delivered"] == 100

    def test_node_crash_reenrolls_through_the_join_protocol(self):
        fault = FaultSpec(kind="node-crash", target="n1", at=2.0,
                          duration=1.0)
        runner = ScenarioRunner(_chain_scenario(faults=[fault]), seed=SEED)
        metrics = runner.run("rina")
        tracer = runner.network.tracer
        assert tracer.counter_value("ipcp.crash") == 1
        assert tracer.events("fault.reenrolled")
        # the relay rejoined: an 'enrolled' event strictly after restart
        restart_at = [t for t, _k, f in tracer.events("fault")
                      if f["phase"] == "restart"][0]
        rejoined = [t for t, _k, f in tracer.events("enrolled")
                    if f["ipcp"] == "net.ipcp.n1" and t > restart_at]
        assert rejoined
        # traffic flows again after the rejoin
        assert metrics["echo_delivered"] >= 60

    def test_partition_outage_spans_the_split(self):
        fault = FaultSpec(kind="partition", target=["n2"], at=2.0,
                          duration=1.2)
        runner = ScenarioRunner(_chain_scenario(faults=[fault]), seed=SEED)
        metrics = runner.run("rina")
        assert metrics["outages"][fault.label()] >= 1.0
        assert metrics["echo_delivered"] == 100    # heals, EFCP recovers

    def test_congestion_slows_the_transfer(self):
        workloads = [WorkloadSpec(kind="transfer", client="n0", server="n2",
                                  bytes=400_000, start=0.5)]
        base = _chain_scenario(duration=4.0, workloads=workloads)
        base.topology.link = {"capacity_bps": 2e6}
        congested = _chain_scenario(
            duration=4.0, workloads=[WorkloadSpec(**vars(workloads[0]))],
            faults=[FaultSpec(kind="congestion", target="n1--n2", at=0.5,
                              duration=3.0, capacity_factor=10.0)])
        congested.topology.link = {"capacity_bps": 2e6}
        clear_bytes = ScenarioRunner(base, seed=SEED).run(
            "rina")["transfer_bytes"]
        slow_bytes = ScenarioRunner(congested, seed=SEED).run(
            "rina")["transfer_bytes"]
        assert 0 < slow_bytes < clear_bytes

    def test_unknown_link_target_rejected(self):
        fault = FaultSpec(kind="link-flap", target="nowhere", at=1.0)
        with pytest.raises(SpecError):
            ScenarioRunner(_chain_scenario(faults=[fault]),
                           seed=SEED).run("rina")

    def test_partition_cuts_parallel_links(self):
        # regression: the cut must be computed over the links themselves,
        # not a simple graph that collapses multi-edges — with parallel
        # uplinks a one-link "partition" never partitions
        from repro.scenarios import LinkSpec
        topology = TopologySpec(
            family="explicit", nodes=["h", "p"],
            links=[LinkSpec("h", "p", name="uplink#a"),
                   LinkSpec("h", "p", name="uplink#b")])
        fault = FaultSpec(kind="partition", target=["h"], at=1.0,
                          duration=0.8)
        scenario = Scenario(
            name="t-parallel", topology=topology, dif_depth=1,
            workloads=[WorkloadSpec(kind="echo", client="h", server="p",
                                    count=40, start=0.5)],
            faults=[fault], duration=5.0)
        runner = ScenarioRunner(scenario, seed=SEED)
        metrics = runner.run("rina")
        for name in ("uplink#a", "uplink#b"):
            assert runner.network.links[name].up   # healed afterwards
        assert metrics["outages"][fault.label()] >= 0.7
        assert metrics["echo_delivered"] == 40

    def test_overlapping_faults_share_link_down_state(self):
        # regression: a partition healing mid-flap must not repair a link
        # another injector still holds down (refcounted down-state)
        from repro.scenarios import FaultContext, make_injector
        from repro.scenarios.runner import build_topology
        from repro.sim.network import Network
        network = Network(seed=1)
        build_topology(TopologySpec(family="chain", params={"count": 3}),
                       network)
        ctx = FaultContext(network)
        make_injector(FaultSpec(kind="link-flap", target="n1--n2", at=1.0,
                                duration=2.0)).arm(ctx, 0.0)
        make_injector(FaultSpec(kind="partition", target=["n2"], at=1.5,
                                duration=0.5)).arm(ctx, 0.0)
        link = network.link_between("n1", "n2")
        network.run(until=2.5)
        assert not link.up      # partition healed, flap still holds
        network.run(until=3.5)
        assert link.up          # last hold released

    def test_outage_is_per_workload_not_merged(self):
        # regression: steady traffic on an unaffected workload must not
        # mask the outage a fault inflicts on another workload's path
        scenario = Scenario(
            name="t-mask",
            topology=TopologySpec(family="chain", params={"count": 4}),
            workloads=[WorkloadSpec(kind="echo", client="n0", server="n1",
                                    count=100),
                       WorkloadSpec(kind="echo", client="n2", server="n3",
                                    count=100)],
            faults=[FaultSpec(kind="link-flap", target="n2--n3", at=1.5,
                              duration=1.0)],
            duration=8.0)
        metrics = ScenarioRunner(scenario, seed=SEED).run("rina")
        assert metrics["worst_outage_s"] >= 0.5

    def test_crashed_node_ghost_flows_cannot_enter_the_dif(self):
        # regression: PDUs arriving on a flow the crashed IPCP no longer
        # owns must be dropped before the security gate, not relayed
        fault = FaultSpec(kind="node-crash", target="n1", at=2.0,
                          duration=1.0)
        runner = ScenarioRunner(_chain_scenario(faults=[fault]), seed=SEED)
        runner.run("rina")
        tracer = runner.network.tracer
        assert tracer.counter_value("security.ghost-port-pdu") > 0

    def test_auto_layers_span_custom_named_links(self):
        # regression: dif_depth-derived layers must cover links whose
        # names don't follow the canonical a--b#seq pattern
        from repro.scenarios import LinkSpec
        topology = TopologySpec(
            family="explicit", nodes=["h", "p"],
            links=[LinkSpec("h", "p", name="radio:alpha"),
                   LinkSpec("h", "p", name="radio:beta")])
        scenario = Scenario(
            name="t-named", topology=topology, dif_depth=2,
            workloads=[WorkloadSpec(kind="echo", client="h", server="p",
                                    count=30, start=0.5)],
            duration=4.0)
        metrics = ScenarioRunner(scenario, seed=SEED).run("rina")
        assert metrics["echo_delivered"] == 30


class TestConditionInjectors:
    """The four network-condition windows: jitter-storm,
    bandwidth-squeeze, corruption-storm, reorder-burst."""

    def test_bandwidth_squeeze_slows_the_transfer(self):
        workloads = [WorkloadSpec(kind="transfer", client="n0", server="n2",
                                  bytes=400_000, start=0.5)]
        base = _chain_scenario(duration=4.0, workloads=workloads)
        base.topology.link = {"capacity_bps": 2e7}
        squeezed = _chain_scenario(
            duration=4.0, workloads=[WorkloadSpec(**vars(workloads[0]))],
            faults=[FaultSpec(kind="bandwidth-squeeze", target="n1--n2",
                              at=0.4, duration=3.5, rate_bps=5e5)])
        squeezed.topology.link = {"capacity_bps": 2e7}
        clear_bytes = ScenarioRunner(base, seed=SEED).run(
            "rina")["transfer_bytes"]
        slow_bytes = ScenarioRunner(squeezed, seed=SEED).run(
            "rina")["transfer_bytes"]
        assert 0 < slow_bytes < clear_bytes

    def test_condition_windows_restore_the_original_bundle(self):
        faults = [FaultSpec(kind="jitter-storm", target="n0--n1", at=1.5,
                            duration=1.0, jitter_s=0.004),
                  FaultSpec(kind="reorder-burst", target="n1--n2", at=1.5,
                            duration=1.0)]
        runner = ScenarioRunner(_chain_scenario(faults=faults), seed=SEED)
        metrics = runner.run("rina")
        # the links started clean; after the windows they must be again
        assert runner.network.link_between("n0", "n1").conditions is None
        assert runner.network.link_between("n1", "n2").conditions is None
        assert metrics["echo_delivered"] == 100

    def test_corruption_counter_surfaces_in_the_trace(self):
        fault = FaultSpec(kind="corruption-storm", target="n0--n1", at=1.5,
                          duration=2.0, corrupt_prob=0.3)
        runner = ScenarioRunner(_chain_scenario(faults=[fault]), seed=SEED)
        metrics = runner.run("rina")
        tracer = runner.network.tracer
        assert tracer.counter_value("link.corrupted") > 0
        # ...but detection + retransmission keep the reliable flow whole
        assert metrics["echo_delivered"] == 100

    def test_reorder_burst_masked_by_sequencing(self):
        fault = FaultSpec(kind="reorder-burst", target="n0--n1", at=1.5,
                          duration=3.0, reorder_prob=0.4, reorder_depth=4)
        runner = ScenarioRunner(_chain_scenario(faults=[fault]), seed=SEED)
        metrics = runner.run("rina")
        assert metrics["echo_delivered"] == 100

    def test_invalid_condition_fault_parameters_rejected(self):
        with pytest.raises(SpecError):
            FaultSpec(kind="jitter-storm", target="l", jitter_s=-1).validate()
        with pytest.raises(SpecError):
            FaultSpec(kind="jitter-storm", target="l",
                      jitter_model="pareto").validate()
        with pytest.raises(SpecError):
            FaultSpec(kind="bandwidth-squeeze", target="l",
                      rate_bps=0).validate()
        with pytest.raises(SpecError):
            FaultSpec(kind="corruption-storm", target="l",
                      corrupt_prob=1.5).validate()
        with pytest.raises(SpecError):
            FaultSpec(kind="reorder-burst", target="l",
                      reorder_depth=0).validate()


class TestStaticLinkConditions:
    """Conditions as static link configuration: an explicit LinkSpec's
    jitter/shaper/corruption/reorder slots and a builder family's
    ``link={...}`` both flow into ``Network.connect(conditions=...)``."""

    def test_explicit_linkspec_conditions(self):
        from repro.scenarios import LinkSpec
        topology = TopologySpec(
            family="explicit", nodes=["a", "b"],
            links=[LinkSpec("a", "b", capacity_bps=1e8,
                            jitter={"model": "uniform", "amplitude": 0.002},
                            shaper={"rate_bps": 5e6})])
        scenario = Scenario(
            name="t-static", topology=topology, dif_depth=1,
            workloads=[WorkloadSpec(kind="echo", client="a", server="b",
                                    count=40, start=0.5)],
            duration=5.0)
        runner = ScenarioRunner(scenario, seed=SEED)
        metrics = runner.run("rina")
        link = runner.network.link_between("a", "b")
        assert link.conditions is not None
        assert link.conditions.jitter is not None
        assert link.conditions.shaper.rate_bps == 5e6
        assert metrics["echo_delivered"] == 40

    def test_builder_family_link_conditions(self):
        scenario = _chain_scenario()
        scenario.topology.link = {
            "capacity_bps": 1e8,
            "jitter": {"model": "normal", "mean": 0.002, "stddev": 0.001}}
        runner = ScenarioRunner(scenario, seed=SEED)
        metrics = runner.run("rina")
        for link in runner.network.links.values():
            assert link.conditions is not None
        assert metrics["echo_delivered"] == 100

    def test_builder_family_loss_given_as_a_string(self):
        from repro.scenarios.runner import build_topology
        from repro.sim.network import Network
        network = Network(seed=SEED)
        build_topology(TopologySpec(family="chain", params={"count": 3},
                                    link={"loss": "0.25"}), network)
        assert [link.loss.probability for link in network.links.values()
                ] == [0.25, 0.25]

    def test_static_conditions_round_trip_through_dict(self):
        from repro.scenarios import LinkSpec
        topology = TopologySpec(
            family="explicit", nodes=["a", "b"],
            links=[LinkSpec("a", "b",
                            corruption={"probability": 0.1},
                            reorder={"probability": 0.2, "depth": 3})])
        scenario = Scenario(
            name="t-roundtrip", topology=topology, dif_depth=1,
            workloads=[WorkloadSpec(kind="echo", client="a", server="b",
                                    count=10)],
            duration=3.0)
        clone = Scenario.from_dict(json.loads(json.dumps(
            scenario.to_dict())))
        assert clone.to_dict() == scenario.to_dict()


class TestConditionFamilies:
    """The condition-model canned corpus: flash-crowd, diurnal-load,
    rolling-degradation, corruption-storm.  Seed-0 rina byte-stability is
    pinned in tests/test_trace_golden.py; here the IP baseline side of
    the dual-stack contract plus family-specific behavior."""

    NAMES = ("flash-crowd", "diurnal-load", "rolling-degradation",
             "corruption-storm")

    @pytest.mark.parametrize("name", NAMES)
    def test_ip_trace_is_reproducible(self, name):
        spec = CANNED[name]()
        first = ScenarioRunner(spec, seed=SEED)
        metrics_a = first.run("ip")
        second = ScenarioRunner(spec, seed=SEED)
        metrics_b = second.run("ip")
        assert metrics_a == metrics_b
        assert first.trace == second.trace

    def test_corruption_storm_rina_recovers_ip_leaks(self):
        rows = {}
        for stack in ("rina", "ip"):
            rows[stack] = ScenarioRunner(CANNED["corruption-storm"](),
                                         seed=SEED).run(stack)
        # reliable EFCP flows retransmit through the bit errors; the
        # baseline's UDP echo probes silently lose the damaged frames
        assert rows["rina"]["echo_delivered"] == rows["rina"]["echo_sent"]
        assert rows["ip"]["echo_delivered"] < rows["ip"]["echo_sent"]

    def test_flash_crowd_transfer_completes_through_the_squeeze(self):
        metrics = ScenarioRunner(CANNED["flash-crowd"](),
                                 seed=SEED).run("rina")
        assert metrics["transfers_completed"] == 1
        assert metrics["echo_delivered"] == metrics["echo_sent"]


class TestDualStack:
    def test_fault_storm_runs_on_both_stacks(self):
        rows = {}
        for stack in ("rina", "ip"):
            runner = ScenarioRunner(fault_storm(), seed=SEED)
            rows[stack] = runner.run(stack)
        for stack, metrics in rows.items():
            assert metrics["stack"] == stack
            assert metrics["transfers_completed"] == 1
            assert set(metrics["outages"]) == {
                f.label() for f in fault_storm().faults}
        # the recursive stack's reliable flows ride out the storm; the
        # baseline's UDP probes do not
        assert rows["rina"]["echo_delivered"] == 160
        assert rows["ip"]["echo_delivered"] < 160

    def test_stream_workload_reports_latency(self):
        scenario = _chain_scenario(workloads=[
            WorkloadSpec(kind="stream", client="n0", server="n2",
                         period=0.05, size=300, start=1.0)], duration=4.0)
        for stack in ("rina", "ip"):
            metrics = ScenarioRunner(scenario, seed=SEED).run(stack)
            assert metrics["stream_received"] > 20
            assert metrics["stream_delay_p95_ms"] > 0

    def test_layered_stack_depth_two(self):
        scenario = _chain_scenario(duration=6.0)
        scenario.dif_depth = 2
        metrics = ScenarioRunner(scenario, seed=SEED).run("rina")
        assert metrics["echo_delivered"] == 100


class TestCannedE345:
    """The E3/E4/E5 stacks are now built from canned scenario specs; the
    experiment modules must still produce their published shapes (the
    deeper assertions live in tests/test_experiments.py)."""

    def test_e3_spec_builds_both_configs(self):
        from repro.experiments.e3_scoped_recovery import build_scenario
        from repro.sim.link import UniformLoss
        for config in ("e2e", "scoped"):
            network, systems, knob = build_scenario(config, seed=1)
            assert isinstance(knob, UniformLoss)
            difs = set()
            for system in systems.values():
                difs.update(str(n) for n in system.provider_names()
                            if not str(n).startswith("shim:"))
            assert ("wifi" in difs) == (config == "scoped")

    def test_e4_spec_reproduces_failover(self):
        from repro.experiments.e4_multihoming import run_rina
        row = run_rina(keepalive_interval=0.2, seed=1)
        assert row["survived"]
        assert row["outage_s"] <= row["detection_budget_s"] + 0.5

    def test_e5_spec_builds_three_layer_stack(self):
        from repro.experiments.e5_mobility import RinaMobilityScenario
        scenario = RinaMobilityScenario(seed=1)
        assert {str(d.name) for d in (scenario.region1, scenario.region2,
                                      scenario.metro)} \
            == {"region1", "region2", "metro"}
        assert scenario.metro.member_count() == 5

    def test_canned_registry_runs_standalone(self):
        metrics = ScenarioRunner(canned("e4-multihoming"),
                                 seed=SEED).run("rina")
        assert metrics["echo_delivered"] == 120


class TestCli:
    def test_list_and_run(self, capsys):
        from repro.__main__ import main
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "fault-storm" in out

    def test_run_generated_spec(self, capsys):
        from repro.__main__ import main
        assert main(["scenarios", "run", "--seed", "3", "--stack", "rina",
                     "gen:1"]) == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out

    def test_run_json_spec(self, tmp_path, capsys):
        from repro.__main__ import main
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_chain_scenario(duration=3.0).to_dict()))
        assert main(["scenarios", "run", "--stack", "rina",
                     str(path)]) == 0

    def test_unknown_canned_name_rejected(self, capsys):
        from repro.__main__ import main
        assert main(["scenarios", "run", "no-such-scenario"]) == 2
