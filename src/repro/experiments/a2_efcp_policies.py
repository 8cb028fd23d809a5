"""A2 — ablation of §3.1/§8: EFCP mechanism fixed, policy swapped.

"By separating mechanisms from policies [...] we can enable users to
specify IPC policies declaratively."  Here the same EFCP machinery runs a
bulk transfer over one lossy link under three retransmission policies and
two congestion policies, showing that policy choice — not new protocol
code — covers the performance space:

* ``selective``  — SACK-based selective repeat (default reliable cube);
* ``gobackn``    — retransmit the whole window on timeout;
* ``none``       — no recovery (best-effort cube): delivery < 1 under loss.

Measured: completion time, goodput, retransmission count (gobackn resends
far more), delivery ratio (1.0 for the reliable policies, ≈1-loss for
none).
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..apps.filetransfer import FileSender, FileSink
from ..core import (BEST_EFFORT, RELIABLE, Dif, DifPolicies, Orchestrator,
                    QosCube, add_shims, build_dif_over, make_systems, run_until,
                    shim_between)
from ..sim.link import UniformLoss
from ..sim.network import Network
from ..sweeps import Job
from .common import goodput_bps


def build_lossy_pair(retx: str, congestion: str = "none", seed: int = 1):
    """Two hosts, one lossy link, EFCP policy overrides per the ablation."""
    network = Network(seed=seed)
    network.add_node("a")
    network.add_node("b")
    loss_model = UniformLoss(0.0)
    network.connect("a", "b", capacity_bps=2e7, delay=0.01, loss=loss_model)
    systems = make_systems(network)
    add_shims(systems, network)
    overrides: Dict[str, Any] = {"congestion": congestion}
    if retx != "none":
        overrides["retx"] = retx
    policies = DifPolicies(keepalive_interval=2.0, dead_factor=8,
                           efcp_cube_overrides={"reliable": overrides,
                                                "bulk": overrides})
    dif = Dif("net", policies)
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, dif, systems,
                   adjacencies=[("a", "b", shim_between(network, "a", "b"))])
    orchestrator.run(timeout=30)
    return network, systems, loss_model


def run_policy(retx: str, loss: float, total_bytes: int = 100_000,
               congestion: str = "none", seed: int = 1) -> Dict[str, Any]:
    """One row: one policy at one loss rate."""
    network, systems, loss_model = build_lossy_pair(retx, congestion, seed)
    sink = FileSink(systems["b"])
    network.run(until=network.engine.now + 0.5)
    loss_model.probability = loss
    qos = BEST_EFFORT if retx == "none" else RELIABLE
    sender = FileSender(systems["a"], total_bytes, qos=qos)
    run_until(network, lambda: sender.waiter.done(), timeout=10)
    start = sender.started_at if sender.started_at is not None else network.engine.now
    if retx == "none":
        # unreliable: wait until submission finished plus drain time
        run_until(network, lambda: sender.finished_submitting, timeout=120)
        network.run(until=network.engine.now + 2.0)
        finished = sink.transfers_completed >= 1
        elapsed = network.engine.now - 2.0 - start
    else:
        finished = run_until(network, lambda: sink.transfers_completed >= 1,
                             timeout=300)
        elapsed = (sink.completion_times[0] - start) if finished else float("inf")
    stats = _sender_efcp(systems["a"])
    delivered = sink.bytes_received
    return {
        "retx": retx,
        "congestion": congestion,
        "loss": loss,
        "completed": finished,
        "delivery_ratio": round(delivered / total_bytes, 4),
        "goodput_mbps": goodput_bps(delivered, elapsed) / 1e6
        if elapsed not in (0, float("inf")) else 0.0,
        "retransmissions": stats["retransmissions"],
        "timeouts": stats["timeouts"],
    }


def iter_jobs(losses: List[float] = (0.0, 0.05, 0.1, 0.2),
              total_bytes: int = 80_000, seed: int = 1) -> List[Job]:
    """The A2 table as data: one job per (loss, retx policy), loss-major."""
    return [Job("repro.experiments.a2_efcp_policies:run_policy",
                kwargs={"retx": retx, "loss": loss,
                        "total_bytes": total_bytes, "seed": seed},
                group="a2", label=f"a2 {retx} loss={loss}")
            for loss in losses
            for retx in ("selective", "gobackn", "none")]


def _sender_efcp(system) -> Dict[str, int]:
    stats = {"retransmissions": 0, "timeouts": 0}
    for record in system.ipcp("net").flow_allocator.records().values():
        if record.efcp is not None:
            stats["retransmissions"] += record.efcp.stats.retransmissions
            stats["timeouts"] += record.efcp.stats.timeouts
    return stats
