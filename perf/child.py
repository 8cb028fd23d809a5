"""One repeat of a sim workload, in a fresh interpreter.

``run.py`` starts ``python3 perf/child.py '<job json>'`` with ``src/``
on ``PYTHONPATH``.  The child imports the workload's modules, builds
the inputs from the job's seed, then times **one public call** and
prints one JSON line: wall, CPU (own + reaped descendants), peak RSS,
set-up time, the digest of the simulated outcome, operations attempted
and failed, the program's own counters, and — when the job asks for a
profile — self time and entering calls per layer.

The layers are measured from outside: nothing in ``src/`` is edited or
patched; the profile is ``cProfile`` around the same call.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

import procs
import tables

#: data_lossy runs the scenario at this many program seeds per repeat:
#: what one lossy run costs depends on its loss draws (event count IQR
#: 12 % of the median over 20 seeds), a panel of 3 brings the sum's
#: spread under 5 %.
LOSSY_PANEL = 3
_STREAM_MESSAGES = 2950     # (duration - start) / period
_ECHO_COUNT = 500


def _scenario(lossy: bool, seed: int):
    from repro.scenarios import Scenario
    link: Dict[str, Any] = {"capacity_bps": 1e8, "delay": 0.001}
    size = (1_000_000 if lossy else 4_000_000) + 1000 * (seed % 16)
    if lossy:
        link.update(
            loss=0.01,
            jitter={"model": "uniform", "amplitude": 0.0005},
            corruption={"probability": 0.005, "max_flips": 3},
            reorder={"probability": 0.02, "depth": 3, "max_hold": 0.01})
    return Scenario.from_dict({
        "name": "perf-data-lossy" if lossy else "perf-data-clean",
        "topology": {"family": "chain", "params": {"count": 6},
                     "link": link},
        "dif_depth": 2,
        "duration": 30.0,
        "workloads": [
            {"kind": "transfer", "client": "n0", "server": "n5",
             "start": 0.5, "bytes": size},
            {"kind": "transfer", "client": "n5", "server": "n0",
             "start": 0.5, "bytes": size},
            {"kind": "stream", "client": "n2", "server": "n3",
             "start": 0.5, "count": _ECHO_COUNT, "size": 400,
             "period": 0.01, "qos": "best-effort"},
            {"kind": "echo", "client": "n1", "server": "n4",
             "start": 0.5, "count": _ECHO_COUNT, "size": 200,
             "period": 0.01},
        ]})


def _scenario_ops(metrics: Dict[str, Any], lossy: bool) -> Tuple[int, int]:
    """Transfers and echoes expected vs completed; the best-effort
    stream is one operation: on the clean plant it must deliver 99 %,
    on the lossy one half (it loses messages there by design — 19 % on
    some seeds, when loss takes an adjacency down for a while)."""
    attempted = 2 + _ECHO_COUNT + 1
    enough = (0.5 if lossy else 0.99) * _STREAM_MESSAGES
    done = (metrics["transfers_completed"] + metrics["echo_delivered"]
            + (metrics["stream_received"] >= enough))
    return attempted, attempted - done


def _scenario_job(lossy: bool, stack: str, seeds: List[int]):
    from repro.scenarios import ScenarioRunner
    runners = [ScenarioRunner(_scenario(lossy, seed), seed) for seed in seeds]

    def call():
        return [runner.run(stack) for runner in runners]

    def check(rows):
        attempted = failed = 0
        for row in rows:
            a, f = _scenario_ops(row, lossy)
            attempted, failed = attempted + a, failed + f
        return {
            "attempted": attempted, "failed": failed,
            "digest": tables.combined_digest(
                tables.digest(runner.trace) for runner in runners),
            "counts": {"sim.engine.events": sum(r["events"] for r in rows)},
        }
    return call, check


def _row_result(row: Dict[str, Any], attempted: int, done: int,
                counts: Dict[str, str]) -> Dict[str, Any]:
    from repro.sweeps import stable_row
    return {
        "attempted": attempted, "failed": max(0, attempted - done),
        "digest": tables.digest(stable_row(row)),
        "counts": {metric: row[key] for metric, key in counts.items()
                   if key in row},
        "rib_sha256": row.get("rib_sha256"),
    }


def prepare(workload: str, seed: int
            ) -> Tuple[Callable[[], Any], Callable[[Any], Dict[str, Any]]]:
    """(the one public call, its checker) — imports and input
    generation happen here, before the timed region."""
    if workload in ("data_clean", "data_clean_ip"):
        return _scenario_job(False, "ip" if workload.endswith("_ip")
                             else "rina", [seed])
    if workload == "data_lossy":
        return _scenario_job(True, "rina", [LOSSY_PANEL * seed + i
                                            for i in range(LOSSY_PANEL)])
    from repro.experiments import e6_scalability as e6
    if workload == "control_flat":
        return (lambda: e6.run_scale("flat", 10, 20, seed),
                lambda row: _row_result(
                    # every member's table covers the DIF when all enrolled
                    row, row["systems"], int(row["mean_table"]) + 1, {
                        "sim.engine.events": "events",
                        "core.routing.spf_runs": "spf_runs",
                        "core.routing.spf_skipped": "spf_skipped",
                        "core.routing.lsas_reflooded": "lsas_reflooded",
                        "experiments.build_s": "build_s"}))
    if workload == "flood":
        origins = 128
        return (lambda: e6.run_flood_scale(20, 50, shards=1, seed=seed,
                                           origins=origins),
                lambda row: _row_result(
                    row, origins * (row["systems"] - 1), row["deliveries"],
                    {"sim.engine.events": "events"}))
    shard_counts = {
        "sim.engine.events": "events",
        "shard.coordinator.grants": "grants",
        "shard.coordinator.region_steps": "region_steps",
        "shard.transport.relay_bytes": "relay_bytes",
        "shard.transport.relay_batches": "relay_batches",
        "shard.transport.frames_relayed": "frames_relayed"}
    # protocol= and transport= are left to the repo's defaults on purpose
    if workload in ("shard_stateful", "shard_inline"):
        mode = "process" if workload == "shard_stateful" else "inline"
        return (lambda: e6.run_stateful_scale(10, 20, shards=2, seed=seed,
                                              mode=mode),
                lambda row: _row_result(row, row["systems"],
                                        row["enrolled"], shard_counts))
    if workload == "shard_serial":
        return (lambda: e6.run_stateful_scale(10, 20, shards=1, seed=seed),
                lambda row: _row_result(row, row["systems"],
                                        row["enrolled"], shard_counts))
    raise SystemExit(f"child: unknown workload {workload!r}")


def _cpu_seconds() -> Tuple[float, float]:
    """(own, reaped descendants') user+system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime)


def main(argv: List[str]) -> int:
    job = json.loads(argv[1])
    call, check = prepare(job["workload"], job["seed"])
    profiler = None
    if job.get("profile"):
        import cProfile
        profiler = cProfile.Profile()
    setup_s = procs.now() - job["spawned_at"]

    cpu0 = _cpu_seconds()
    started_at = procs.now()
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        result = call()
    finally:
        if profiler is not None:
            profiler.disable()
    wall_s = time.perf_counter() - started
    ended_at = procs.now()
    cpu1 = _cpu_seconds()

    out = check(result)
    # own peak from VmHWM, not ru_maxrss: a process inherits its parent's
    # ru_maxrss across fork+exec, so a harness grown to 51 MB made every
    # 40 MB child report 51
    own = procs.peak_rss_mb(os.getpid())
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    out.update({
        "wall_s": wall_s,
        "cpu_self_s": cpu1[0] - cpu0[0],
        "cpu_children_s": cpu1[1] - cpu0[1],
        "peak_rss_mb": max(own, kids),              # ru_maxrss is KiB
        "setup_s": setup_s,
        # the call's window on the clock the speed samplers share
        "spawned_at": job["spawned_at"],
        "call_started_at": started_at, "call_ended_at": ended_at,
    })
    if profiler is not None:
        import pstats
        out["layers"] = tables.bucket_profile(pstats.Stats(profiler).stats)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
