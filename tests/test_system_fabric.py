"""Integration tests for the System API and fabric orchestration."""

import pytest

from repro.core import (Dif, DifPolicies, FabricError, Orchestrator,
                        add_shims, build_dif_over, make_systems, run_until,
                        shim_between, shim_name_for)
from repro.core.flow import FAILED, PENDING
from repro.core.names import ApplicationName, DifName
from repro.core.system import SystemError_
from repro.sim.network import Network


def small_net(seed=1):
    network = Network(seed=seed)
    for name in ("a", "b", "c"):
        network.add_node(name)
    network.connect("a", "b")
    network.connect("b", "c")
    systems = make_systems(network)
    add_shims(systems, network)
    return network, systems


class TestSystem:
    def test_add_shim_per_interface(self):
        network, systems = small_net()
        assert len(systems["b"].provider_names()) == 2

    def test_duplicate_shim_rejected(self):
        network = Network()
        network.add_node("a")
        network.add_node("b")
        network.connect("a", "b")
        systems = make_systems(network)
        interface = next(network.node("a").interfaces())
        systems["a"].add_shim(interface, "s")
        with pytest.raises(SystemError_):
            systems["a"].add_shim(interface, "s")

    def test_duplicate_ipcp_rejected(self):
        network, systems = small_net()
        dif = Dif("d")
        systems["a"].create_ipcp(dif)
        with pytest.raises(SystemError_):
            systems["a"].create_ipcp(dif)

    def test_allocate_unknown_dif_raises(self):
        network, systems = small_net()
        with pytest.raises(SystemError_):
            systems["a"].allocate_flow(ApplicationName("x"),
                                       ApplicationName("y"),
                                       dif_name="missing")

    def test_allocate_without_common_dif_fails(self):
        network, systems = small_net()
        flow = systems["a"].allocate_flow(ApplicationName("x"),
                                          ApplicationName("unknown-app"))
        run_until(network, lambda: flow.state != PENDING, timeout=5)
        assert flow.state == FAILED and flow.failure_reason == "no-common-dif"

    def test_idd_routes_allocation_to_right_dif(self):
        network, systems = small_net()
        dif = Dif("d")
        orchestrator = Orchestrator(network)
        build_dif_over(orchestrator, dif, systems, adjacencies=[
            ("a", "b", shim_between(network, "a", "b")),
            ("b", "c", shim_between(network, "b", "c"))])
        orchestrator.run(timeout=30)
        systems["c"].register_app(ApplicationName("svc"), lambda f: None)
        network.run(until=network.engine.now + 0.5)
        # no dif_name given: the IDD must find "d"
        flow = systems["a"].allocate_flow(ApplicationName("cli"),
                                          ApplicationName("svc"))
        run_until(network, lambda: flow.state != PENDING, timeout=15)
        assert flow.allocated
        assert flow.provider_name == DifName("d")

    def test_unregister_app_withdraws_from_idd(self):
        network, systems = small_net()
        dif = Dif("d")
        orchestrator = Orchestrator(network)
        build_dif_over(orchestrator, dif, systems, adjacencies=[
            ("a", "b", shim_between(network, "a", "b"))])
        orchestrator.run(timeout=30)
        app = ApplicationName("svc")
        systems["b"].register_app(app, lambda f: None)
        assert systems["b"].idd.candidates(app)
        systems["b"].unregister_app(app)
        assert not systems["b"].idd.candidates(app)


class TestOrchestrator:
    def test_steps_run_in_order(self):
        network, _systems = small_net()
        orchestrator = Orchestrator(network)
        seen = []
        orchestrator.call("one", lambda: seen.append(1))
        orchestrator.settle(0.5)
        orchestrator.call("two", lambda: seen.append((2, network.engine.now)))
        orchestrator.run(timeout=10)
        assert seen[0] == 1
        assert seen[1][0] == 2 and seen[1][1] >= 0.5

    def test_failed_step_raises_in_strict_mode(self):
        network, systems = small_net()
        orchestrator = Orchestrator(network)
        dif = Dif("d")
        orchestrator.call("make", lambda: systems["a"].create_ipcp(dif))
        # enrolling via a member that does not exist fails
        orchestrator.enroll(systems["a"], "d",
                            ApplicationName("ghost.ipcp.b"),
                            shim_between(network, "a", "b"))
        with pytest.raises(FabricError):
            orchestrator.run(timeout=30)

    def test_failures_collected_in_lenient_mode(self):
        network, systems = small_net()
        orchestrator = Orchestrator(network)
        dif = Dif("d")
        orchestrator.call("make", lambda: systems["a"].create_ipcp(dif))
        orchestrator.enroll(systems["a"], "d",
                            ApplicationName("ghost.ipcp.b"),
                            shim_between(network, "a", "b"))
        ok = orchestrator.run(timeout=30, strict=False)
        assert not ok
        assert orchestrator.failures


class TestBuildDifOver:
    def test_bfs_enrolls_every_member(self):
        network, systems = small_net()
        dif = Dif("d")
        orchestrator = Orchestrator(network)
        build_dif_over(orchestrator, dif, systems, adjacencies=[
            ("a", "b", shim_between(network, "a", "b")),
            ("b", "c", shim_between(network, "b", "c"))])
        orchestrator.run(timeout=30)
        assert dif.member_count() == 3

    def test_bootstrap_override(self):
        network, systems = small_net()
        dif = Dif("d")
        orchestrator = Orchestrator(network)
        build_dif_over(orchestrator, dif, systems, adjacencies=[
            ("a", "b", shim_between(network, "a", "b"))],
            bootstrap="b")
        orchestrator.run(timeout=30)
        # bootstrap member got the first address
        b_ipcp = systems["b"].ipcp("d")
        assert b_ipcp.address.parts == (1,)

    def test_bad_bootstrap_rejected(self):
        network, systems = small_net()
        orchestrator = Orchestrator(network)
        with pytest.raises(FabricError):
            build_dif_over(orchestrator, Dif("d"), systems,
                           adjacencies=[("a", "b",
                                         shim_between(network, "a", "b"))],
                           bootstrap="zzz")

    def test_empty_adjacencies_rejected(self):
        network, systems = small_net()
        with pytest.raises(FabricError):
            build_dif_over(Orchestrator(network), Dif("d"), systems, [])

    def test_region_hints_flow_into_addresses(self):
        network, systems = small_net()
        from repro.core import TopologicalAddressing
        dif = Dif("d", DifPolicies(addressing=TopologicalAddressing()))
        orchestrator = Orchestrator(network)
        build_dif_over(orchestrator, dif, systems, adjacencies=[
            ("a", "b", shim_between(network, "a", "b")),
            ("b", "c", shim_between(network, "b", "c"))],
            region_hints={"a": [1], "b": [1], "c": [2]})
        orchestrator.run(timeout=30)
        assert systems["c"].ipcp("d").address.parts[0] == 2

    def test_run_until_times_out_cleanly(self):
        network, _systems = small_net()
        assert not run_until(network, lambda: False, timeout=0.5)
        assert run_until(network, lambda: True, timeout=0.5)
