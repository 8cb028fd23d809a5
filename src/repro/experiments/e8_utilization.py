"""E8 — §1 point 5 / §6.6: operating subnetworks above best-effort loads.

The paper: stacking scoped DIFs "provides the basis for operating
subnetworks at much higher utilizations than the 30%–40% in the current
Internet" — because an IPC facility multiplexes *flows with declared QoS
cubes* under an explicit scheduling policy, instead of one undifferentiated
best-effort aggregate.

Setup: three sources → access router → sink, bottleneck 10 Mb/s.  One
delay-sensitive flow (LOW_LATENCY cube: small periodic messages, 50 ms
target) shares the bottleneck with elastic/background traffic.  The
offered load is swept from 0.4 to 1.2 of bottleneck capacity under three
RMT multiplexing policies (the DIF's policy knob — ablation A3 reuses
this harness):

* ``fifo``     — the best-effort Internet analogue: one queue, no classes;
* ``priority`` — strict priority by QoS cube;
* ``drr``      — deficit round robin across cubes.

Reported per (policy, load): p50/p99 latency of the delay-sensitive flow,
its delivery ratio, achieved bottleneck utilization, and whether the
50 ms SLA held.  The headline number is the **highest load whose p99
meets the SLA**: ~0.4–0.7 for FIFO, ≳1.0 for cube-aware scheduling.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..apps.streaming import CbrSource, LatencySink
from ..core import (BEST_EFFORT, LOW_LATENCY, PENDING, Dif, DifPolicies,
                    Orchestrator, add_shims, build_dif_over, make_systems,
                    run_until, shim_between)
from ..sim.network import Network
from ..sweeps import Job
from .common import percentile

BOTTLENECK_BPS = 1e7
SLA_SECONDS = 0.05
LL_MESSAGE_BYTES = 300
LL_PERIOD = 0.01  # 300 B / 10 ms = 240 kb/s of delay-sensitive traffic


def build_bottleneck(scheduler: str, seed: int = 1):
    """Three sources, one router, one sink; DIF with the given scheduler."""
    network = Network(seed=seed)
    for name in ("src1", "src2", "src3", "router", "sink"):
        network.add_node(name)
    for src in ("src1", "src2", "src3"):
        network.connect(src, "router", capacity_bps=5e7, delay=0.001)
    network.connect("router", "sink", capacity_bps=BOTTLENECK_BPS, delay=0.002)
    systems = make_systems(network)
    add_shims(systems, network)
    policies = DifPolicies(scheduler=scheduler, keepalive_interval=5.0,
                           refresh_interval=None)
    dif = Dif("access", policies)
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, dif, systems, adjacencies=[
        ("src1", "router", shim_between(network, "src1", "router")),
        ("src2", "router", shim_between(network, "src2", "router")),
        ("src3", "router", shim_between(network, "src3", "router")),
        ("router", "sink", shim_between(network, "router", "sink"))],
        bootstrap="router")
    orchestrator.run(timeout=60)
    return network, systems, dif


def run_point(scheduler: str, load: float, duration: float = 6.0,
              seed: int = 1) -> Dict[str, Any]:
    """One (policy, offered load) measurement."""
    network, systems, _dif = build_bottleneck(scheduler, seed)
    sink = LatencySink(systems["sink"], "sink")
    network.run(until=network.engine.now + 0.5)

    ll = CbrSource(systems["src1"], "voice", "sink", LOW_LATENCY,
                   LL_MESSAGE_BYTES, LL_PERIOD)
    # background load split over two elastic senders, sized so that
    # ll + background = load * bottleneck
    ll_bps = LL_MESSAGE_BYTES * 8 / LL_PERIOD
    background_bps = max(0.0, load * BOTTLENECK_BPS - ll_bps)
    bg_message = 1200
    bg_sources = []
    for name in ("src2", "src3"):
        period = bg_message * 8 / (background_bps / 2) if background_bps else 1e9
        bg_sources.append(CbrSource(systems[name], f"bg-{name}", "sink",
                                    BEST_EFFORT, bg_message, period))
    run_until(network, lambda: ll.flow.state != PENDING and
              all(s.flow.state != PENDING for s in bg_sources), timeout=15)
    start = network.engine.now
    ll.start()
    for source in bg_sources:
        source.start()
    network.run(until=start + duration)
    ll.stop()
    for source in bg_sources:
        source.stop()
    network.run(until=network.engine.now + 0.5)

    voice_delays = sink.delays.get("voice", [])
    bottleneck = network.link_between("router", "sink")
    utilization = bottleneck.utilization(network.engine.now - start, 0)
    p99 = percentile(voice_delays, 99)
    return {
        "scheduler": scheduler,
        "offered_load": load,
        "voice_sent": ll.sent,
        "voice_delivered": len(voice_delays),
        "delivery_ratio": len(voice_delays) / ll.sent if ll.sent else 0.0,
        "p50_ms": 1000 * percentile(voice_delays, 50),
        "p99_ms": 1000 * p99,
        "utilization": round(utilization, 3),
        "sla_met": bool(voice_delays) and p99 <= SLA_SECONDS
        and len(voice_delays) >= 0.98 * ll.sent,
    }


def iter_jobs(loads: List[float] = (0.5, 0.8, 0.9, 1.0, 1.1),
              schedulers: Optional[List[str]] = None,
              duration: float = 4.0, seed: int = 1) -> List[Job]:
    """The E8 table as data: one job per (scheduler, offered load),
    scheduler-major."""
    return [Job("repro.experiments.e8_utilization:run_point",
                kwargs={"scheduler": scheduler, "load": load,
                        "duration": duration, "seed": seed},
                group="e8", label=f"e8 {scheduler} load={load}")
            for scheduler in (schedulers or ["fifo", "priority", "drr"])
            for load in loads]