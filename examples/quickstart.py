#!/usr/bin/env python3
"""Quickstart: the paper's Figure 1 in ~60 lines.

Two hosts, one wire, one Distributed IPC Facility.  A server registers an
application *name*; a client allocates a flow *to that name* with a QoS
cube, and talks.  Nobody ever sees an address — that is the whole §3.1
interface.

Run:  python examples/quickstart.py
"""

from repro.core import (ApplicationName, Dif, DifPolicies, MessageFlow,
                        Orchestrator, RELIABLE, add_shims, build_dif_over,
                        make_systems, run_until, shim_between)
from repro.core.flow import PENDING
from repro.sim.network import Network


def main() -> None:
    # 1. physical plant: two systems and a 10 Mb/s wire
    network = Network(seed=42)
    network.add_node("alpha")
    network.add_node("beta")
    network.connect("alpha", "beta", capacity_bps=1e7, delay=0.002)

    # 2. systems + rank-0 shim DIFs over each link
    systems = make_systems(network)
    add_shims(systems, network)

    # 3. one DIF spanning the wire: bootstrap alpha, enroll beta (§5.1/§5.2)
    dif = Dif("demo-net", DifPolicies())
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, dif, systems, adjacencies=[
        ("alpha", "beta", shim_between(network, "alpha", "beta"))])
    orchestrator.run(timeout=30)
    print(f"DIF {dif.name} is up with {dif.member_count()} members; "
          f"addresses are internal: "
          f"{sorted(str(a) for a in dif.members())}")

    # 4. the server side: register a NAME (no port numbers, no addresses)
    greetings = []

    def on_inbound(flow):
        message_flow = MessageFlow(flow)

        def on_message(data: bytes) -> None:
            greetings.append(data)
            message_flow.send_message(b"hello, " + data + b"!")
        message_flow.set_message_receiver(on_message)
        globals().setdefault("_keep", []).append(message_flow)

    systems["beta"].register_app(ApplicationName("greeter"), on_inbound)
    network.run(until=network.engine.now + 0.5)

    # 5. the client side: allocate a flow BY NAME with a QoS cube
    flow = systems["alpha"].allocate_flow(ApplicationName("quickstart-client"),
                                          ApplicationName("greeter"),
                                          qos=RELIABLE)
    run_until(network, lambda: flow.state != PENDING, timeout=10)
    print(f"flow allocated: port={flow.port_id!r} qos={flow.qos.name!r} "
          f"(a local handle — not a well-known port)")

    replies = []
    client = MessageFlow(flow)
    client.set_message_receiver(replies.append)
    client.send_message(b"world")
    run_until(network, lambda: replies, timeout=10)
    print("server saw:   ", greetings[0].decode())
    print("client got:   ", replies[0].decode())
    print(f"simulated time: {network.engine.now:.3f}s, "
          f"events: {network.engine.events_processed}")


if __name__ == "__main__":
    main()
