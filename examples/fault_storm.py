#!/usr/bin/env python3
"""The scenario harness in two acts.

**Act 1 — declarative storm.**  The canned ``fault-storm`` spec composes
all five fault injectors (link flap, loss/delay degradation, congestion
burst, partition/heal, node crash with re-enrollment) over a grid
carrying an echo probe and a bulk transfer, and runs it on both the
recursive-IPC stack and the IP baseline — twice each, verifying the runs
are byte-identical (the determinism contract of the test suite).

**Act 2 — injectors amid a handover.**  The injectors are ordinary
engine-scheduled actors, so they compose with the bespoke experiments
too: here the Fig 5 mobility stack performs its inter-region handover
while a link-flap storm batters the radio it is leaving *and* the one it
is moving to — mobility plus failures as ordinary layer operations, which
is the paper's whole point.

Run:  python examples/fault_storm.py
"""

from repro.apps.echo import EchoClient, EchoServer
from repro.core import run_until
from repro.core.flow import PENDING
from repro.experiments.common import delivery_gap, format_table
from repro.experiments.e5_mobility import RinaMobilityScenario
from repro.scenarios import (FaultContext, FaultSpec, ScenarioRunner,
                             fault_storm, make_injector)


def act_one() -> None:
    spec = fault_storm()
    print(f"act 1: '{spec.name}' — {spec.description}")
    rows = []
    for stack in ("rina", "ip"):
        first = ScenarioRunner(spec, seed=7)
        metrics = first.run(stack)
        second = ScenarioRunner(spec, seed=7)
        second.run(stack)
        rows.append({
            "stack": stack,
            "echo": f"{metrics['echo_delivered']}/{metrics['echo_sent']}",
            "transfer_done": metrics["transfers_completed"] == 1,
            "worst_outage_s": metrics["worst_outage_s"],
            "deterministic": first.trace == second.trace,
        })
    print(format_table(rows, title="five injectors, both stacks, two runs"))
    print()


def act_two() -> None:
    print("act 2: flapping radios during the Fig 5 inter-region handover")
    scenario = RinaMobilityScenario(seed=1)
    network = scenario.network
    EchoServer(scenario.systems["m"], dif_names=["metro"])
    network.run(until=network.engine.now + 1.0)
    client = EchoClient(scenario.systems["c"], dif_name="metro")
    run_until(network, lambda: client.flow.state != PENDING, timeout=15)

    deliveries = []
    original = client.message_flow._receiver

    def on_reply(data: bytes) -> None:
        deliveries.append(network.engine.now)
        original(data)
    client.message_flow.set_message_receiver(on_reply)

    stop = [False]

    def pump() -> None:
        if not stop[0]:
            client.ping(120)
            network.engine.call_later(0.05, pump)
    pump()
    network.run(until=network.engine.now + 1.0)

    # the storm: flap the radio being vacated and the one being joined,
    # through the same injectors the declarative harness uses
    t0 = network.engine.now
    ctx = FaultContext(network)
    for spec in (FaultSpec(kind="link-flap", target="radio:bs1", at=0.1,
                           duration=0.4, flaps=2, period=1.0),
                 FaultSpec(kind="link-flap", target="radio:bs3", at=0.3,
                           duration=0.3)):
        make_injector(spec).arm(ctx, t0)

    outcome = []
    scenario.snapshot()
    scenario.move_inter_region(outcome)
    network.run(until=t0 + 8.0)
    stop[0] = True

    gap = delivery_gap(deliveries, t0)
    survived = client.flow.allocated and any(t > t0 for t in deliveries)
    flaps = len(network.tracer.events("fault"))
    print(f"  handover completed: {bool(outcome) and outcome[0][0]}")
    print(f"  flow survived the storm: {survived}")
    print(f"  worst delivery gap through storm+handover: {gap:.2f}s")
    print(f"  fault phases injected: {flaps}, "
          f"routing updates: {scenario.lsa_delta()}")


def main() -> None:
    act_one()
    act_two()


if __name__ == "__main__":
    main()
