"""E1 — Figure 1: one layer of IPC between two directly connected hosts.

What the figure shows: two hosts, one physical link, one DIF; applications
allocate by name through the IPC interface, EFCP supports the requested
channel properties, port IDs are local handles.

What we measure: with the link's loss rate swept, a *reliable* cube must
deliver 100% of messages (EFCP recovers), while a *best-effort* cube
delivers ≈ (1 - loss) — demonstrating that the DIF really provides the
requested properties rather than a fixed service.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Union

from ..apps.echo import EchoClient, EchoServer
from ..core import (PENDING, Dif, DifPolicies, Orchestrator, QosCube,
                    add_shims, build_dif_over, make_systems, run_until,
                    shim_between)
from ..core.qos import DEFAULT_CUBES
from ..sim.link import UniformLoss
from ..sim.network import Network
from ..sweeps import Job
from .common import goodput_bps


def build_two_hosts(loss: float = 0.0, seed: int = 1,
                    capacity_bps: float = 1e7, delay: float = 0.002):
    """The Fig 1 scenario: hosts h1, h2, one link, one DIF."""
    network = Network(seed=seed)
    network.add_node("h1")
    network.add_node("h2")
    network.connect("h1", "h2", capacity_bps=capacity_bps, delay=delay,
                    loss=UniformLoss(loss) if loss > 0 else None)
    systems = make_systems(network)
    add_shims(systems, network)
    dif = Dif("net", DifPolicies(keepalive_interval=5.0))
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, dif, systems,
                   adjacencies=[("h1", "h2", shim_between(network, "h1", "h2"))])
    orchestrator.run(timeout=30)
    return network, systems, dif


def run_transfer(loss: float, qos: Union[QosCube, str], messages: int = 200,
                 size: int = 600, seed: int = 1) -> Dict[str, Any]:
    """One row: send ``messages`` of ``size`` bytes under ``loss``.

    ``qos`` may be a :class:`QosCube` or the name of a default cube —
    the string form is what sweep :class:`~repro.sweeps.Job`\\ s use, so
    their kwargs stay picklable pure data.
    """
    if isinstance(qos, str):
        qos = DEFAULT_CUBES[qos]
    network, systems, _dif = build_two_hosts(loss=loss, seed=seed)
    server = EchoServer(systems["h2"])
    network.run(until=network.engine.now + 0.5)
    client = EchoClient(systems["h1"], qos=qos)
    run_until(network, lambda: client.flow.state != PENDING, timeout=10)
    if not client.ready:
        raise RuntimeError(f"allocation failed: {client.flow.failure_reason}")
    start = network.engine.now
    for _ in range(messages):
        client.ping(size)
    # reliable flows must finish; unreliable flows get a bounded window
    deadline = 60.0 if qos.reliable else 10.0
    run_until(network, lambda: client.replies >= messages, timeout=deadline)
    elapsed = network.engine.now - start
    efcp = _client_efcp_stats(systems["h1"])
    return {
        "loss": loss,
        "qos": qos.name,
        "sent": messages,
        "delivered": client.replies,
        "delivery_ratio": client.replies / messages,
        "elapsed_s": elapsed,
        "goodput_bps": goodput_bps(client.replies * size, elapsed),
        "retransmissions": efcp.get("retransmissions", 0),
        "rtt_p50_ms": 1000 * _median(client.rtts),
    }


def iter_jobs(reliable_losses: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
              best_effort_losses: Sequence[float] = (0.1, 0.2),
              messages: int = 150, seed: int = 1) -> List[Job]:
    """The E1 table as data: one job per (loss, cube) point, in the
    serial table order (reliable sweep, then best-effort)."""
    return [Job("repro.experiments.e1_two_system:run_transfer",
                kwargs={"loss": loss, "qos": cube, "messages": messages,
                        "seed": seed},
                group="e1", label=f"e1 {cube} loss={loss}")
            for cube, losses in (("reliable", reliable_losses),
                                 ("best-effort", best_effort_losses))
            for loss in losses]


def _client_efcp_stats(system) -> Dict[str, int]:
    ipcp = system.ipcp("net")
    stats: Dict[str, int] = {"retransmissions": 0}
    for record in ipcp.flow_allocator.records().values():
        if record.efcp is not None:
            stats["retransmissions"] += record.efcp.stats.retransmissions
    return stats


def _median(values: List[float]) -> float:
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[len(ordered) // 2]
