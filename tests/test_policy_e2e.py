"""End-to-end: a DIF whose behaviour is its policy bundle (§8).

The whole point of "only policies to specify": a facility's behaviour —
auth, scheduling, EFCP tuning, admission, custom cubes — is one
:class:`DifPolicies` value.  These tests build live networks from such
bundles and verify each declared behaviour actually governs the running
system.
"""

from repro.core import (DEFAULT_CUBES, ApplicationName, Dif, DifPolicies,
                        FlowWaiter, MessageFlow, Orchestrator, PresharedKey,
                        QosCube, add_shims, build_dif_over, make_systems,
                        run_until, shim_between)
from repro.sim.network import Network


def spec_policies(secret="spec-secret"):
    """PSK auth, priority scheduling, a 0.25 s × 3 keepalive, a fast EFCP
    RTO floor, one custom 2 Mb/s cube and a 4 Mb/s admission budget."""
    voice = QosCube("spec-voice", max_delay=0.05, avg_bandwidth=2e6,
                    loss_tolerance=0.05, priority=0)
    return DifPolicies(auth=PresharedKey(secret), scheduler="priority",
                       keepalive_interval=0.25, dead_factor=3.0,
                       efcp_overrides={"rto_min": 0.01},
                       qos_cubes={**DEFAULT_CUBES, voice.name: voice},
                       admission_capacity_bps=4e6)


def build_from_spec(policies, joiner_policies=None, seed=1):
    network = Network(seed=seed)
    network.add_node("a")
    network.add_node("b")
    network.connect("a", "b")
    systems = make_systems(network)
    add_shims(systems, network)
    dif = Dif("specnet", policies)
    ipcp_a = systems["a"].create_ipcp(dif)
    ipcp_a.bootstrap()
    systems["a"].publish_ipcp("specnet", shim_between(network, "a", "b"))
    joiner_dif = Dif("specnet", joiner_policies or spec_policies())
    # NB: separate Dif object simulates an independently configured system;
    # enrollment is what reconciles them (or rejects the mismatch)
    systems["b"].create_ipcp(joiner_dif)
    outcomes = []
    systems["b"].enroll("specnet", ipcp_a.name,
                        shim_between(network, "a", "b"),
                        done=lambda ok, reason: outcomes.append((ok, reason)))
    run_until(network, lambda: outcomes, timeout=30)
    return network, systems, dif, outcomes[0]


class TestSpecDrivenFacility:
    def test_matching_secrets_enroll(self):
        _n, systems, dif, (ok, _reason) = build_from_spec(spec_policies())
        assert ok
        assert dif.enrollments_accepted == 1
        assert systems["b"].ipcp("specnet").enrolled

    def test_mismatched_secret_rejected(self):
        _n, _s, dif, (ok, reason) = build_from_spec(
            spec_policies(), joiner_policies=spec_policies(secret="guess"))
        assert not ok and reason == "auth-denied"

    def test_declared_cube_is_allocatable(self):
        network, systems, _dif, (ok, _r) = build_from_spec(spec_policies())
        assert ok
        systems["b"].register_app(ApplicationName("svc"), lambda f: None)
        network.run(until=network.engine.now + 0.5)
        voice = QosCube("spec-voice", max_delay=0.05, priority=0,
                        avg_bandwidth=2e6, loss_tolerance=0.05)
        flow = systems["a"].allocate_flow(ApplicationName("cli"),
                                          ApplicationName("svc"), qos=voice,
                                          dif_name="specnet")
        waiter = FlowWaiter(flow)
        run_until(network, waiter.done, timeout=10)
        assert waiter.ok
        assert flow.qos.name == "spec-voice"

    def test_declared_admission_budget_enforced(self):
        network, systems, _dif, (ok, _r) = build_from_spec(spec_policies())
        assert ok
        systems["b"].register_app(ApplicationName("svc"), lambda f: None)
        network.run(until=network.engine.now + 0.5)
        voice = QosCube("spec-voice", max_delay=0.05, priority=0,
                        avg_bandwidth=2e6, loss_tolerance=0.05)
        waiters = []
        for index in range(3):   # 6 Mb/s demanded of a 4 Mb/s budget
            flow = systems["a"].allocate_flow(
                ApplicationName(f"cli-{index}"), ApplicationName("svc"),
                qos=voice, dif_name="specnet")
            waiters.append(FlowWaiter(flow))
        run_until(network, lambda: all(w.done() for w in waiters), timeout=20)
        assert sorted(w.ok for w in waiters) == [False, True, True]

    def test_declared_keepalive_governs_failover_speed(self):
        # two parallel links, spec keepalive 0.25*3 = 0.75s budget
        network = Network(seed=2)
        network.add_node("a")
        network.add_node("b")
        network.connect("a", "b", name="t#0")
        network.connect("a", "b", name="t#1")
        systems = make_systems(network)
        add_shims(systems, network)
        dif = Dif("specnet", spec_policies())
        orchestrator = Orchestrator(network)
        from repro.core import shim_name_for
        build_dif_over(orchestrator, dif, systems, adjacencies=[
            ("a", "b", shim_name_for("t#0")),
            ("a", "b", shim_name_for("t#1"))])
        orchestrator.run(timeout=30)
        received = []

        def on_flow(flow):
            mf = MessageFlow(network.engine, flow)
            mf.set_message_receiver(lambda d: received.append(network.engine.now))
            on_flow._keep = mf
        systems["b"].register_app(ApplicationName("sink"), on_flow)
        network.run(until=network.engine.now + 0.5)
        from repro.core.qos import RELIABLE
        flow = systems["a"].allocate_flow(ApplicationName("src"),
                                          ApplicationName("sink"),
                                          qos=RELIABLE)
        waiter = FlowWaiter(flow)
        run_until(network, waiter.done, timeout=10)
        sender = MessageFlow(network.engine, flow)
        sent = [0]

        def pump():
            if sent[0] < 60:
                sender.send_message(b"x")
                sent[0] += 1
                network.engine.call_later(0.05, pump)
        pump()
        fail_at = network.engine.now + 1.0
        network.engine.call_later(1.0, network.links["t#0"].fail)
        run_until(network, lambda: len(received) >= 60, timeout=60)
        from repro.experiments.common import delivery_gap
        gap = delivery_gap(received, fail_at)
        assert gap < 0.25 * 3 + 0.6   # budget + recovery slack
