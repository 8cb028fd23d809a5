"""Names of the benchmark: workloads, metrics, layers — and the small
pure helpers (percentile rule, layer bucketing, digest) the contract
test pins.  Nothing here imports ``repro`` or starts anything.

``BENCHMARK.json`` at the repository root is ``manifest()`` written out
(``python3 perf/run.py --manifest``); ``perf/test_perf_contract.py``
fails when the two disagree.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: How long one run measures unless ``--seconds`` says otherwise.
RUN_SECONDS = 8

# ----------------------------------------------------------------------
# Workloads: name -> one-line reason (the why of BENCHMARK.json)
# ----------------------------------------------------------------------
WORKLOADS: Dict[str, str] = {
    "control_flat": (
        "211-system flat DIF build: enrollment, RIEP, LSA flooding and SPF "
        "do the work (core.routing/riep/ipcp/names); EFCP does almost none"),
    "data_clean": (
        "8 MB of transfers, a stream and an echo over a 6-node chain and "
        "two DIF ranks: the EFCP/RMT/delimiting/shim fast path, routing "
        "under 2 %"),
    "data_lossy": (
        "the same plant with loss, jitter, corruption and reordering on "
        "every link: EFCP recovery, SDU protection and the LinkConditions "
        "pipeline, so a fast-path gain that costs recovery shows"),
    "flood": (
        "128 announcements flooded over 1,021 systems at frame level: "
        "sim.engine, sim.link and shard.flood only, core/ runs nothing, so "
        "an engine change shows undiluted"),
    "shard_stateful": (
        "control_flat's control plane cut into 2 worker processes with "
        "the default protocol and transport: coordinator, framing, codec "
        "and grant-wait are the difference to serial"),
    "gateway_echo": (
        "socket gateway on loopback, closed loop of 8 flows echoing 64 B: "
        "per-message cost through gateway.*, wire and codec"),
    "gateway_echo_8k": (
        "the same closed loop at 8,192 B per message: per-byte cost "
        "(framing, codec, fragmentation), per-message cost diluted"),
}

GATEWAY_PAYLOAD = {"gateway_echo": 64, "gateway_echo_8k": 8192}
GATEWAY_CLIENTS = 8
#: A gateway run reports time per this many echo round trips, so that
#: every workload reports the same four end-to-end metrics.
GATEWAY_BATCH = 10_000

# ----------------------------------------------------------------------
# End-to-end metrics: (name, unit, better, bound).  Every workload
# reports all of them (the contract prints every end-to-end metric on
# every untraced run), so each is defined for the gateway too.
# ----------------------------------------------------------------------
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("wall_s", "s", "lower", 0.21),
    ("cpu_s", "s", "lower", 0.21),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
]

# ----------------------------------------------------------------------
# Layers = modules of src/repro (ISSUE's list plus the two buckets the
# rule "unlisted file -> <package>.other" needs: gateway.other for
# cli/load/conformance, repro.other for sweeps and the top-level files)
# ----------------------------------------------------------------------
LAYERS: Tuple[str, ...] = (
    "sim.engine", "sim.link", "sim.trace", "sim.other",
    "core.shim", "core.rmt", "core.efcp", "core.pdu", "core.delimiting",
    "core.sdu_protection", "core.flow", "core.flow_allocator", "core.ipcp",
    "core.names", "core.routing", "core.riep", "core.rib",
    "core.enrollment", "core.codec", "core.other",
    "apps", "baselines", "scenarios", "experiments",
    "shard.coordinator", "shard.engine", "shard.flood", "shard.stateful",
    "shard.framing", "shard.ring", "shard.other",
    "gateway.wire", "gateway.transport", "gateway.shim", "gateway.driver",
    "gateway.server", "gateway.other",
    "repro.other", "python.other",
)
_WHOLE_PACKAGES = frozenset({"apps", "baselines", "scenarios", "experiments"})
_REPRO_MARKER = "/src/repro/"


def layer_of(filename: str) -> str:
    """The layer a profiled function's file belongs to.

    ``src/repro/<package>/<module>.py`` is ``<package>.<module>`` when
    that is a listed layer, else ``<package>.other``; the four packages
    listed whole are one layer each; any other ``repro`` file is
    ``repro.other``; everything outside ``repro`` (heapq, asyncio,
    pickle, multiprocessing, builtins — ``~`` in pstats) is
    ``python.other``.
    """
    path = filename.replace(os.sep, "/")
    at = path.rfind(_REPRO_MARKER)
    if at < 0:
        return "python.other"
    parts = path[at + len(_REPRO_MARKER):].split("/")
    if len(parts) < 2:
        return "repro.other"
    package = parts[0]
    if package in _WHOLE_PACKAGES:
        return package
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    for name in (f"{package}.{stem}", f"{package}.other"):
        if name in LAYERS:
            return name
    return "repro.other"


def bucket_profile(stats: Dict[Tuple[str, int, str], Tuple[Any, ...]]
                   ) -> Dict[str, Dict[str, float]]:
    """Fold a ``pstats.Stats(...).stats`` table into layers.

    Per layer: ``self_s`` (sum of the functions' own time — children are
    excluded by construction) and ``calls`` (calls that *enter* the
    layer: made by a function of another layer, or by the profiler's
    root).
    """
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _line, _name), row in stats.items():
        _cc, ncalls, self_s, _cum, callers = row
        layer = layer_of(filename)
        out[layer]["self_s"] += self_s
        if not callers:
            out[layer]["calls"] += ncalls
        for (caller_file, _l, _n), caller_row in callers.items():
            if layer_of(caller_file) != layer:
                out[layer]["calls"] += caller_row[0]
    return out


# ----------------------------------------------------------------------
# Per-layer metrics: (name, unit, better).  No bounds.  0 where a layer
# does not run on the workload or a probe's target no longer imports.
# ----------------------------------------------------------------------
PROBES: Tuple[str, ...] = (
    "core.codec.encode_us", "core.codec.decode_us",
    "shard.framing.pack_us", "shard.framing.unpack_us",
    "gateway.wire.encode_us", "gateway.wire.decode_us",
    "shard.ring.relay_us",
    "sim.engine.dispatch_us",
    "sim.link.send_us", "sim.link.conditioned_send_us",
)
OPEN_LOOP_RATES = (2000, 8000, 16000)
#: The open-loop latency limit: a rate is "ok" when its p99 stays under
#: this and the backlog does not grow.
OPEN_LOOP_LIMIT_MS = 5.0


def _per_layer() -> List[Tuple[str, str, str]]:
    rows: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        rows.append((f"{layer}.self_share", "share", "lower"))
        rows.append((f"{layer}.calls", "count", "lower"))
    rows += [
        ("trace.overhead_ratio", "ratio", "lower"),
        # program counts, read from the returned rows
        ("sim.engine.events", "count", "lower"),
        ("core.routing.spf_runs", "count", "lower"),
        ("core.routing.spf_skipped", "count", "higher"),
        ("core.routing.lsas_reflooded", "count", "lower"),
        ("experiments.build_s", "s", "lower"),
        ("shard.coordinator.grants", "count", "lower"),
        ("shard.coordinator.region_steps", "count", "lower"),
        ("shard.transport.relay_bytes", "bytes", "lower"),
        ("shard.transport.relay_batches", "count", "lower"),
        ("shard.transport.frames_relayed", "count", "lower"),
        # process split of shard_stateful (untraced, process mode)
        ("shard.coordinator.cpu_s", "s", "lower"),
        ("shard.workers.cpu_s", "s", "lower"),
        ("shard.parallelism", "ratio", "higher"),
        ("shard.serial_wall_s", "s", "lower"),
        ("shard_speedup", "ratio", "higher"),
        # the paper's comparison, on data_clean
        ("baselines.ip_wall_s", "s", "lower"),
        ("rina_over_ip_cost", "ratio", "lower"),
        # gateway, closed loop (what wall_s/cpu_s are derived from)
        ("gateway.req_per_s", "req/s", "higher"),
        ("gateway.latency_p50_ms", "ms", "lower"),
        ("gateway.latency_p99_ms", "ms", "lower"),
        ("gateway.latency_samples", "count", "higher"),
        ("gateway.server_cpu_us_per_req", "us", "lower"),
        ("bench.client.cpu_us_per_req", "us", "lower"),
        ("bench.client_bound", "count", "lower"),
        # gateway, open loop
    ]
    rows += [(f"gateway.open.r{rate}.latency_p99_ms", "ms", "lower")
             for rate in OPEN_LOOP_RATES]
    rows += [
        ("gateway.open.lateness_p99_ms", "ms", "lower"),
        ("gateway.open.max_rate_ok", "req/s", "higher"),
    ]
    rows += [(name, "us", "lower") for name in PROBES]
    return rows


PER_LAYER: List[Tuple[str, str, str]] = _per_layer()


def manifest() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def highest_percentile(samples: int) -> Optional[float]:
    """The highest of p99.9/p99/p95/p90/p75 with at least ten samples
    beyond it; None under 40 samples (report the median only)."""
    for pct, needed in ((99.9, 10000), (99.0, 1000), (95.0, 200),
                        (90.0, 100), (75.0, 40)):
        if samples >= needed:
            return pct
    return None


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * pct // 100))   # ceil
    return ordered[min(len(ordered), int(rank)) - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them —
    the driver's rule; one value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def digest(value: Any) -> str:
    """SHA-256 of a row (canonical JSON) or of a trace text."""
    if not isinstance(value, (str, bytes)):
        value = json.dumps(value, sort_keys=True, default=repr)
    if isinstance(value, str):
        value = value.encode()
    return hashlib.sha256(value).hexdigest()


def combined_digest(parts: Iterable[str]) -> str:
    """One digest over several (a run that makes more than one call)."""
    return digest("\n".join(parts))
