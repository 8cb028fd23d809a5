"""A5 — ablation (§1.2/§4): what does each level of recursion cost?

"The greater the operating range in a network, the more IPC layers it may
have" — but each layer adds header bytes and another EFCP/RMT pass.  This
ablation stacks 1..N identical DIFs between two hosts over one wire and
measures goodput, per-message latency, and wire overhead per level, so a
designer can see what the divide-and-conquer strategy costs when the
extra scopes buy nothing (the complement of E3, where a scope earns its
keep against a lossy medium).
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..apps.echo import EchoClient, EchoServer
from ..apps.filetransfer import FileSender, FileSink
from ..core import (RELIABLE, Dif, DifPolicies, Orchestrator, add_shims,
                    build_dif_over, make_systems, run_until, shim_between)
from ..sim.network import Network
from ..sweeps import Job
from .common import goodput_bps


def build_stack(depth: int, seed: int = 1, capacity_bps: float = 2e7):
    """Two hosts, one wire, ``depth`` DIFs stacked on the shim."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    network = Network(seed=seed)
    network.add_node("a")
    network.add_node("b")
    network.connect("a", "b", capacity_bps=capacity_bps, delay=0.005)
    systems = make_systems(network)
    add_shims(systems, network)
    orchestrator = Orchestrator(network)
    lower = shim_between(network, "a", "b")
    top_name = None
    for level in range(1, depth + 1):
        dif = Dif(f"level{level}", DifPolicies(
            keepalive_interval=2.0, refresh_interval=None,
            lower_flow_cube=RELIABLE if level > 1 else None))
        build_dif_over(orchestrator, dif, systems,
                       adjacencies=[("a", "b", lower)], settle=0.2)
        lower = f"level{level}"
        top_name = lower
    orchestrator.run(timeout=60 + 20 * depth)
    return network, systems, top_name


def run_depth(depth: int, total_bytes: int = 100_000,
              seed: int = 1) -> Dict[str, Any]:
    """One row: bulk goodput + echo latency through ``depth`` layers."""
    network, systems, top = build_stack(depth, seed=seed)
    link = network.link_between("a", "b")

    sink = FileSink(systems["b"], dif_names=[top])
    network.run(until=network.engine.now + 0.5)
    wire_before = sum(link.bytes_delivered)
    sender = FileSender(systems["a"], total_bytes, qos=RELIABLE,
                        dif_name=top)
    run_until(network, lambda: sender.waiter.done(), timeout=15)
    start = (sender.started_at if sender.started_at is not None
             else network.engine.now)
    finished = run_until(network, lambda: sink.transfers_completed >= 1,
                         timeout=300)
    elapsed = (sink.completion_times[0] - start) if finished else float("inf")
    wire_bytes = sum(link.bytes_delivered) - wire_before

    server = EchoServer(systems["b"], name=f"echo-{depth}", dif_names=[top])
    network.run(until=network.engine.now + 0.5)
    client = EchoClient(systems["a"], server_name=f"echo-{depth}",
                        dif_name=top)
    run_until(network, lambda: client.waiter.done(), timeout=15)
    for _ in range(20):
        client.ping(100)
    run_until(network, lambda: client.replies >= 20, timeout=30)
    rtts = sorted(client.rtts)
    return {
        "depth": depth,
        "completed": finished,
        "goodput_mbps": goodput_bps(total_bytes, elapsed) / 1e6,
        "wire_bytes_per_payload_byte": round(wire_bytes / total_bytes, 3),
        "rtt_p50_ms": 1000 * rtts[len(rtts) // 2] if rtts else float("nan"),
    }


def iter_jobs(depths: List[int] = (1, 2, 3, 4), total_bytes: int = 100_000,
              seed: int = 1) -> List[Job]:
    """The A5 table as data: one job per stack depth."""
    return [Job("repro.experiments.a5_depth:run_depth",
                kwargs={"depth": depth, "total_bytes": total_bytes,
                        "seed": seed},
                group="a5", label=f"a5 depth={depth}")
            for depth in depths]
