#!/usr/bin/env python3
"""§4 live: network management is just the management task set.

The paper folds management into every IPC process — "an IPC Management,
which implements RIEP to query and update a Resource Information Base".
So a network-management station is *an application of the DIF* reading
other members' RIBs with plain RIEP ``M_READ``s — no SNMP, no separate
management network, and (per §6.1) nothing an outsider can touch.

This example builds a five-system provider DIF, runs some traffic, then
has the station at the edge walk every member's RIB and print an
inventory table.

Run:  python examples/management.py
"""

from repro.apps import EchoClient, EchoServer
from repro.core import (Dif, DifPolicies, Orchestrator, add_shims,
                        build_dif_over, make_systems, run_until, shim_between)
from repro.core.flow import PENDING
from repro.experiments.common import format_table
from repro.sim.network import Network

PROBE_OBJECTS = ["/ipcp/name", "/routing/table-size", "/directory/size",
                 "/flows/count", "/stats/rmt", "/neighbors"]


def main() -> None:
    network = Network(seed=11)
    for name in ("station", "core", "edge1", "edge2", "server-host"):
        network.add_node(name)
    for name in ("station", "edge1", "edge2", "server-host"):
        network.connect(name, "core", delay=0.002)
    systems = make_systems(network)
    add_shims(systems, network)

    dif = Dif("provider", DifPolicies(keepalive_interval=1.0))
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, dif, systems, adjacencies=[
        (name, "core", shim_between(network, name, "core"))
        for name in ("station", "edge1", "edge2", "server-host")],
        bootstrap="core")
    orchestrator.run(timeout=60)
    print(f"provider DIF up: {dif.member_count()} members")

    # some real traffic so the RIBs have something to say
    EchoServer(systems["server-host"])
    network.run(until=network.engine.now + 0.5)
    client = EchoClient(systems["edge1"])
    run_until(network, lambda: client.flow.state != PENDING, timeout=15)
    for _ in range(25):
        client.ping(300)
    run_until(network, lambda: client.replies >= 25, timeout=30)

    # the management walk: read every member's RIB over RIEP
    station = systems["station"].ipcp("provider")
    rows = []
    for address in sorted(dif.members()):
        if address == station.address:
            continue
        record = {"member": str(address)}
        pending = []
        for obj in PROBE_OBJECTS:
            done = []

            def on_reply(reply, key=obj, rec=record, box=done):
                rec[key] = reply.value if reply is not None and reply.ok \
                    else "?"
                box.append(1)
            station.remote_read(address, obj, on_reply)
            pending.append(done)
        run_until(network, lambda: all(p for p in pending), timeout=15)
        rows.append(record)
    print()
    print(format_table(rows, title="RIB inventory read over RIEP "
                                   "(addresses shown are DIF-internal)"))
    print()
    relays = [r for r in rows if isinstance(r.get("/stats/rmt"), dict)
              and r["/stats/rmt"]["relayed"] > 0]
    print(f"{len(relays)} member(s) relayed traffic; the echo flow's state "
          f"appears only at the endpoints' '/flows/count'.")


if __name__ == "__main__":
    main()
