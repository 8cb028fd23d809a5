"""E2 — Figure 2: IPC through dedicated relaying systems.

What the figure shows: hosts communicating through a router; per-interface
IPC processes below, one relaying-and-multiplexing DIF above.

What we measure, sweeping the number of routers on the path: flows still
allocate purely by name; RTT grows linearly with hop count (relaying
works); every intermediate system relays (its RMT counters prove it
forwards *without* any per-flow state — only the endpoints hold EFCP
state, the paper's transport/relaying integration point).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from ..apps.echo import EchoClient, EchoServer
from ..core import (PENDING, Dif, DifPolicies, Orchestrator, add_shims,
                    build_dif_over, make_systems, run_until, shim_between)
from ..sim.network import Network
from ..sweeps import Job


def build_chain(routers: int, seed: int = 1, capacity_bps: float = 2e7,
                delay: float = 0.001):
    """h0 - r1 - ... - rk - h1 with one DIF over the whole chain."""
    network = Network(seed=seed)
    names = (["h0"] + [f"r{i}" for i in range(1, routers + 1)] + ["h1"])
    for name in names:
        network.add_node(name)
    for left, right in zip(names, names[1:]):
        network.connect(left, right, capacity_bps=capacity_bps, delay=delay)
    systems = make_systems(network)
    add_shims(systems, network)
    dif = Dif("net", DifPolicies(keepalive_interval=5.0))
    orchestrator = Orchestrator(network)
    adjacencies = [(a, b, shim_between(network, a, b))
                   for a, b in zip(names, names[1:])]
    build_dif_over(orchestrator, dif, systems, adjacencies=adjacencies)
    orchestrator.run(timeout=60 + 10 * routers)
    return network, systems, dif, names


def run_relay(routers: int, messages: int = 50, size: int = 400,
              seed: int = 1) -> Dict[str, Any]:
    """One row: echo across ``routers`` relaying systems."""
    network, systems, _dif, names = build_chain(routers, seed=seed)
    server = EchoServer(systems["h1"])
    network.run(until=network.engine.now + 0.5)
    client = EchoClient(systems["h0"])
    run_until(network, lambda: client.flow.state != PENDING, timeout=15)
    if not client.ready:
        raise RuntimeError(f"allocation failed: {client.flow.failure_reason}")
    for _ in range(messages):
        client.ping(size)
    run_until(network, lambda: client.replies >= messages, timeout=60)
    relayed = {name: systems[name].ipcp("net").rmt.pdus_relayed
               for name in names[1:-1]}
    endpoint_flow_state = {
        name: systems[name].ipcp("net").flow_allocator.active_flow_count()
        for name in names}
    return {
        "routers": routers,
        "delivered": client.replies,
        "rtt_p50_ms": 1000 * sorted(client.rtts)[len(client.rtts) // 2]
        if client.rtts else float("nan"),
        "relayed_min": min(relayed.values()) if relayed else 0,
        "relay_flow_state": max((endpoint_flow_state[n] for n in names[1:-1]),
                                default=0),
        "endpoint_flow_state": endpoint_flow_state["h0"],
    }


def iter_jobs(router_counts: Sequence[int] = (1, 2, 4, 8),
              seed: int = 1) -> List[Job]:
    """The E2 table as data: one job per chain length."""
    return [Job("repro.experiments.e2_relay:run_relay",
                kwargs={"routers": count, "seed": seed},
                group="e2", label=f"e2 routers={count}")
            for count in router_counts]
