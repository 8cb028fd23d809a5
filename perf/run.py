#!/usr/bin/env python3
"""The repository benchmark.  One command, stdlib only:

    python3 perf/run.py                     every workload, every metric
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py --repeats K --json A.json [B.json ...]
    python3 perf/run.py --compare A.json B.json

One *run* measures one workload for ``--seconds`` of host time and
prints, as the last line of stdout, one JSON object with exactly
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Simulated time is an output that is checked, never a metric.

Every layer is measured from outside, through the public calls listed
in ``perf/README.md``; nothing under ``src/`` is edited or patched.
``run.py`` finds ``src/`` from its own path and works from any cwd.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate    # noqa: E402
import procs        # noqa: E402
import tables       # noqa: E402

#: A run must end inside the driver's 180 s; children are cut to fit.
HARD_LIMIT_S = 170.0
MIN_REPEATS = 3
GATEWAY_SERVERS = 3         # server processes a gateway run is split over
GATEWAY_SETUPS = 5          # set-ups a gateway run times (median reported)
WARMUP_S = 0.3
OPEN_LOOP_STEP_S = 2.0

#: Expected wall of each child call on the reference box; a child's
#: timeout is max(60 s, 10x this), five times that under the profiler.
EXPECTED_S = {"control_flat": 4.0, "data_clean": 2.0, "data_clean_ip": 1.0,
              "data_lossy": 4.5, "flood": 1.5, "shard_stateful": 6.0,
              "shard_inline": 5.0, "shard_serial": 4.0}
#: The call profiled for a workload's layer shares, where it is not the
#: workload's own: cProfile sees one process, so the sharded plant is
#: profiled with its regions inline.
PROFILED_CALL = {"shard_stateful": "shard_inline"}

_UNITS = {name: unit for name, unit, *_ in tables.END_TO_END}
_UNITS.update({name: unit for name, unit, _ in tables.PER_LAYER})


# ----------------------------------------------------------------------
# Result bookkeeping
# ----------------------------------------------------------------------
def new_result(workload: str, seed: int, seconds: float,
               trace: int) -> Dict[str, Any]:
    load1, own = box_load()
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "correct": True, "attempted": 0, "failed": 0,
            "metrics": {}, "notes": [],
            "info": {"load1": load1, "own_load": round(own, 2),
                     "noisy": load1 - own >= 1.0}}


def fail(res: Dict[str, Any], note: str) -> None:
    """A crashed or timed-out step: one failed operation, never a hang
    or a traceback-only exit."""
    res["correct"] = False
    res["attempted"] += 1
    res["failed"] += 1
    res["notes"].append(note)


_CHILD_SPANS: List[Tuple[float, float]] = []


def box_load() -> Tuple[float, float]:
    """(1-minute load average, the part of it this harness's own
    children put there — an estimate: one runnable per live child)."""
    try:
        with open("/proc/loadavg") as handle:
            load1 = float(handle.read().split()[0])
    except (OSError, ValueError):
        load1 = 0.0
    now = time.monotonic()
    own = sum(math.exp(-(now - end) / 60.0) - math.exp(-(now - start) / 60.0)
              for start, end in _CHILD_SPANS)
    return load1, own


def _tail(text: str, lines: int = 3) -> str:
    return " | ".join(text.strip().splitlines()[-lines:])


def _median(samples: Sequence[Dict[str, Any]], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def fill_layer_metrics(metrics: Dict[str, float],
                       layers: Dict[str, Dict[str, float]]) -> None:
    total = sum(row["self_s"] for row in layers.values()) or 1.0
    for layer, row in layers.items():
        metrics[f"{layer}.self_share"] = row["self_s"] / total
        metrics[f"{layer}.calls"] = row["calls"]


class Run:
    """One run of one workload: its children, its speed samplers, its
    result."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: int) -> None:
        self.res = new_result(workload, seed, seconds, trace)
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.traced = bool(trace)
        self.deadline = time.monotonic() + HARD_LIMIT_S
        #: the measured process runs on cpus[0]; the sharded plant and
        #: nothing else may use cpus[1] too
        self.cpus = calibrate.usable_cpus(2)
        self.samplers = calibrate.Samplers(self.cpus)

    # -- children -------------------------------------------------------
    def child(self, script: str, argument: str, timeout: float,
              cpus: Sequence[int]) -> Dict[str, Any]:
        """Run ``perf/<script> <argument>`` pinned to ``cpus``; its last
        stdout line is the JSON result, anything else becomes
        ``{"error": ...}``."""
        timeout = min(timeout, self.deadline - time.monotonic())
        if timeout < 1.0:
            return {"error": "the run's time limit was reached"}
        started = time.monotonic()
        code, out, err = procs.run(
            [sys.executable, os.path.join(procs.HERE, script), argument],
            timeout, cpus)
        _CHILD_SPANS.append((started, time.monotonic()))
        if code != 0:
            how = "timed out" if code is None else f"exit {code}"
            return {"error": f"{script} {argument[:60]}: {how}: {_tail(err)}"}
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return {"error": f"{script}: no result line in {out[-200:]!r}"}

    def sim_repeat(self, call: str, profile: bool = False) -> Dict[str, Any]:
        job = {"workload": call, "seed": self.seed, "profile": profile,
               "spawned_at": procs.now()}
        timeout = (max(60.0, 10.0 * EXPECTED_S[call])
                   * (5.0 if profile else 1.0))
        cpus = self.cpus if call == "shard_stateful" else self.cpus[:1]
        sample = self.child("child.py", json.dumps(job), timeout, cpus)
        sample["cpus"] = cpus
        return sample

    def at_reference_speed(self, sample: Dict[str, Any]) -> None:
        """Scale a child's times by the speed its CPUs ran at while it
        ran (needs the samplers stopped); raw values are kept."""
        call = self.samplers.speed(sample["call_started_at"],
                                   sample["call_ended_at"], sample["cpus"])
        setup = self.samplers.speed(sample["spawned_at"],
                                    sample["call_started_at"], sample["cpus"])
        sample["raw_wall_s"], sample["speed"] = sample["wall_s"], call
        for key in ("wall_s", "cpu_self_s", "cpu_children_s"):
            sample[key] *= call
        sample["setup_s"] *= setup
        sample["cpu_s"] = sample["cpu_self_s"] + sample["cpu_children_s"]

    # -- sim workloads: one public call per fresh child interpreter ------
    def measure(self, call: str, seconds: float
                ) -> Tuple[List[Dict[str, Any]], Optional[str]]:
        """Repeat the call, each time in a fresh child, until ``seconds``
        of call time are measured and MIN_REPEATS exist.  Fresh children
        because that is what a CLI user pays, and because in-process
        repeats of the 1,021-system build drift upward (5.85, 6.77,
        7.66 s) as heap and intern tables grow, where fresh children
        show no trend."""
        samples: List[Dict[str, Any]] = []
        while True:
            sample = self.sim_repeat(call)
            if "error" in sample:
                return samples, sample["error"]
            samples.append(sample)
            measured = sum(s["wall_s"] for s in samples)
            if measured >= seconds and len(samples) >= MIN_REPEATS:
                return samples, None

    def extra(self, call: str, profile: bool = False
              ) -> Optional[Dict[str, Any]]:
        """One more child beside the repeats (reference, baseline,
        profile); None, with the failure recorded, if it broke."""
        sample = self.sim_repeat(call, profile)
        if "error" in sample:
            fail(self.res, sample["error"])
            return None
        self.res["attempted"] += sample["attempted"]
        self.res["failed"] += sample["failed"]
        return sample

    def run_sim(self) -> None:
        res, workload = self.res, self.workload
        # a traced run needs the untraced median only for the overhead
        # ratio and the process split: half the window is enough
        samples, error = self.measure(
            workload, self.seconds / 2.0 if self.traced else self.seconds)
        if error is not None:
            fail(res, error)
        if not samples:
            return
        # every child first, then stop the samplers, then the arithmetic
        serial = profiled = ip = probed = None
        if workload == "shard_stateful":
            serial = self.extra("shard_serial")
        if self.traced:
            profiled = self.extra(PROFILED_CALL.get(workload, workload),
                                  profile=True)
            if workload == "data_clean":
                ip = self.extra("data_clean_ip")
            probed = self.probes()
        self.samplers.stop()
        for sample in samples + [s for s in (serial, profiled, ip) if s]:
            self.at_reference_speed(sample)

        res["attempted"] += sum(s["attempted"] for s in samples)
        res["failed"] += sum(s["failed"] for s in samples)
        digests = sorted({s["digest"] for s in samples})
        res["info"].update(
            repeats=len(samples), sim_digest=digests[0],
            raw_walls=[round(s["raw_wall_s"], 4) for s in samples],
            speeds=[round(s["speed"], 3) for s in samples])
        if len(digests) > 1:
            res["correct"] = False
            res["notes"].append(f"repeats of seed {self.seed} disagree on "
                                f"the simulated outcome: {digests}")
        end_to_end = {name: _median(samples, name)
                      for name, *_ in tables.END_TO_END}
        if serial is not None:
            # the single-engine reference: same RIB fingerprint or the
            # sharded run is wrong
            if serial["rib_sha256"] != samples[0]["rib_sha256"]:
                res["correct"] = False
                res["notes"].append(
                    f"rib_sha256 {samples[0]['rib_sha256']} differs from "
                    f"the serial reference's {serial['rib_sha256']}")
            res["info"]["rib_sha256"] = samples[0]["rib_sha256"]
        if not self.traced:
            res["metrics"] = end_to_end
            return

        metrics = res["metrics"] = {n: 0.0 for n, *_ in tables.PER_LAYER}
        metrics.update(samples[0]["counts"])
        if profiled is not None:
            # an inline plant relays no bytes, so its row differs from
            # the process-mode row in relay_bytes: compare RIBs there
            same = "rib_sha256" if workload in PROFILED_CALL else "digest"
            if profiled[same] != samples[0][same]:
                res["correct"] = False
                res["notes"].append("the profiled call's simulated outcome "
                                    "differs from the untraced repeats'")
            fill_layer_metrics(metrics, profiled["layers"])
            metrics["trace.overhead_ratio"] = (profiled["wall_s"]
                                               / end_to_end["wall_s"])
        if workload == "shard_stateful":
            metrics["shard.coordinator.cpu_s"] = _median(samples,
                                                         "cpu_self_s")
            metrics["shard.workers.cpu_s"] = _median(samples,
                                                     "cpu_children_s")
            metrics["shard.parallelism"] = statistics.median(
                s["cpu_s"] / s["wall_s"] for s in samples)
            if serial is not None:
                # base: the shards=1 run of the same plant and seed
                metrics["shard.serial_wall_s"] = serial["wall_s"]
                metrics["shard_speedup"] = (serial["wall_s"]
                                            / end_to_end["wall_s"])
        if ip is not None:
            # base: the IP baseline's wall on the same spec and seed
            metrics["baselines.ip_wall_s"] = ip["wall_s"]
            metrics["rina_over_ip_cost"] = (end_to_end["wall_s"]
                                            / ip["wall_s"])
        if probed is not None:
            metrics.update(self.probe_metrics(probed))

    def probes(self) -> Optional[Dict[str, Any]]:
        probed = self.child("probes.py", str(self.seed), 60.0, self.cpus[:1])
        if "error" in probed:
            fail(self.res, probed["error"])
            return None
        self.res["notes"].extend(probed.pop("notes"))
        return probed

    def probe_metrics(self, probed: Dict[str, Any]) -> Dict[str, float]:
        """Probe figures at reference speed (needs the samplers stopped)."""
        windows = probed.pop("windows")
        return {name: value * self.samplers.speed(*windows[name],
                                                  self.cpus[:1])
                for name, value in probed.items()}

    # -- gateway workloads: a server child on loopback, the client here --
    def gateway_session(self, payload: int, seconds: float,
                        ladder: bool = False, profile_to: Optional[str] = None
                        ) -> Dict[str, Any]:
        """One server child's life: spawn to first ``alloc-ok`` (the
        set-up window), warm-up, ``seconds`` of closed loop, optionally
        the open-loop ladder; the server is gone when this returns."""
        import gwclient
        server = client = None
        started = time.monotonic()
        try:
            server, client, setup = gwclient.measure_setup(
                HARD_LIMIT_S, self.seed, payload, self.cpus[:1], profile_to)
            client.encode_requests()
            client.allocate(1)
            client.closed_loop(WARMUP_S)    # caches fill, lazy set-up ends
            out = {"setup": setup, "closed": client.closed_loop(seconds)}
            if ladder:
                out["ladder"] = open_loop_ladder(client)
            out["peak_rss_mb"] = procs.peak_rss_mb(server.pid)
            client.close()
            if profile_to is not None:      # it dumps on the way out
                procs.stop(server, interrupt_first=15.0)
            return out
        finally:
            if client is not None:
                client.sock.close()
                self.res["failed"] += (client.wire_errors
                                       + client.alloc_failures)
            if server is not None:
                procs.stop(server)
            _CHILD_SPANS.append((started, time.monotonic()))

    def run_gateway(self) -> None:
        import gwclient
        res = self.res
        payload = tables.GATEWAY_PAYLOAD[self.workload]
        seconds = (max(2.0, self.seconds * 0.3) if self.traced
                   else self.seconds)
        cpu = self.cpus[:1]
        res["notes"].append(
            f"closed loop, {tables.GATEWAY_CLIENTS} clients on one TCP "
            f"connection, {payload} B per message; loopback only - traffic "
            f"crosses no real link; client and server share CPU {cpu[0]}, "
            f"so one speed trace calibrates both")
        sessions: List[Dict[str, Any]] = []
        setups: List[Tuple[float, float]] = []
        layers = probed = None
        mine = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, cpu)
            for _ in range(GATEWAY_SETUPS - GATEWAY_SERVERS):
                server, client, window = gwclient.measure_setup(
                    HARD_LIMIT_S, self.seed, payload, cpu)
                client.sock.close()
                procs.stop(server)
                setups.append(window)
            # the window is split over GATEWAY_SERVERS server processes:
            # each has its own level (memory layout, scheduling phase;
            # +-5 % between servers), the run reports the median slice
            for index in range(GATEWAY_SERVERS):
                sessions.append(self.gateway_session(
                    payload, seconds / GATEWAY_SERVERS,
                    ladder=self.traced and index == GATEWAY_SERVERS - 1))
            if self.traced:
                layers = self.profiled_gateway(payload, seconds)
        except (gwclient.GatewayError, OSError) as exc:
            fail(res, f"gateway: {type(exc).__name__}: {exc}")
        finally:
            os.sched_setaffinity(0, mine)
        if self.traced:
            probed = self.probes()
        self.samplers.stop()
        slices = [piece for session in sessions
                  for piece in session["closed"].slices if piece[2]]
        if not slices:
            if sessions:
                fail(res, "gateway: the closed loop completed no slice")
            return

        closed = [session["closed"] for session in sessions]
        res["attempted"] += sum(phase.sent for phase in closed)
        res["failed"] += sum(phase.failed for phase in closed)
        speed = self.samplers.speed
        # per slice, at reference speed: seconds of wall and of server
        # CPU per GATEWAY_BATCH round trips
        end_to_end = {
            "wall_s": statistics.median(
                (end - start) * speed(start, end, cpu) / replies
                * tables.GATEWAY_BATCH
                for start, end, replies, _cpu in slices),
            "cpu_s": statistics.median(
                server_cpu * speed(start, end, cpu) / replies
                * tables.GATEWAY_BATCH
                for start, end, replies, server_cpu in slices),
            "peak_rss_mb": statistics.median(
                session["peak_rss_mb"] for session in sessions),
            "setup_s": statistics.median(
                (end - start) * speed(start, end, cpu)
                for start, end in setups + [s["setup"] for s in sessions])}
        replies = sum(phase.replies for phase in closed)
        rate = replies / sum(phase.wall_s for phase in closed)
        ordered = sorted(latency for phase in closed
                         for latency in phase.latencies)
        top = tables.highest_percentile(len(ordered))
        res["info"].update(
            servers=len(sessions), slices=len(slices),
            raw_req_per_s=round(rate, 1), latency_samples=len(ordered),
            raw_latency_p50_ms=round(tables.percentile(ordered, 50) * 1e3, 4),
            raw_latency_top=(f"p{top:g} = "
                             f"{tables.percentile(ordered, top) * 1e3:.4f} ms"
                             if top else "too few samples"),
            speeds=[round(speed(start, end, cpu), 3)
                    for start, end, *_ in slices])
        if not self.traced:
            res["metrics"] = end_to_end
            return

        metrics = res["metrics"] = {n: 0.0 for n, *_ in tables.PER_LAYER}
        server_us = sum(p.server_cpu_s for p in closed) / replies * 1e6
        client_us = sum(p.client_cpu_s for p in closed) / replies * 1e6
        metrics.update({
            # the figures below are raw (as the box ran), not calibrated
            "gateway.req_per_s": rate,
            "gateway.latency_p50_ms": tables.percentile(ordered, 50) * 1e3,
            "gateway.latency_samples": len(ordered),
            "gateway.server_cpu_us_per_req": server_us,
            "bench.client.cpu_us_per_req": client_us,
            # the client must be the cheaper side or wall_s measures it
            "bench.client_bound": float(client_us >= server_us),
        })
        if len(ordered) >= 1000:      # ten samples beyond the p99
            metrics["gateway.latency_p99_ms"] = (
                tables.percentile(ordered, 99) * 1e3)
        else:
            res["notes"].append(f"{len(ordered)} latency samples do not "
                                f"support a p99: reported as 0")
        if metrics["bench.client_bound"]:
            res["notes"].append(
                f"client-bound: the client spends {client_us:.0f} us of CPU "
                f"per request, the server {server_us:.0f}")
        metrics.update(sessions[-1].get("ladder", {}))
        if layers is not None:
            fill_layer_metrics(metrics, layers[0])
            if layers[1]:
                metrics["trace.overhead_ratio"] = rate / layers[1]
        if probed is not None:
            metrics.update(self.probe_metrics(probed))

    def profiled_gateway(self, payload: int, seconds: float
                         ) -> Optional[Tuple[Dict[str, Dict[str, float]],
                                             float]]:
        """The same closed loop against a server child run under
        ``python -m cProfile -o``: (layers of its profile, its rate)."""
        import gwclient
        import pstats
        res = self.res
        os.makedirs(procs.SCRATCH, exist_ok=True)
        profile = os.path.join(procs.SCRATCH, f"gateway-{os.getpid()}.prof")
        try:
            if self.deadline - time.monotonic() < seconds + 30.0:
                raise gwclient.GatewayError("the run's time limit was reached")
            phase = self.gateway_session(payload, seconds,
                                         profile_to=profile)["closed"]
            stats = pstats.Stats(profile).stats
        except (gwclient.GatewayError, OSError, EOFError, ValueError,
                TypeError) as exc:
            fail(res, f"profiled gateway: {type(exc).__name__}: {exc}")
            return None
        finally:
            if os.path.exists(profile):
                os.unlink(profile)
        res["attempted"] += phase.sent
        res["failed"] += phase.failed
        # the event loop's blocking poll is the server waiting, not working
        busy = {key: row for key, row in stats.items()
                if not (key[0] == "~" and "'poll'" in key[2])}
        return (tables.bucket_profile(busy),
                phase.replies / phase.wall_s if phase.wall_s else 0.0)


def open_loop_ladder(client) -> Dict[str, float]:
    """Fixed-rate steps, each request timed from when it was due.  A
    rate is ok when its p99 meets the limit, every reply arrives and
    the backlog does not grow; the ladder stops at the first rate that
    is not (higher rates stay 0 = not run)."""
    out: Dict[str, float] = {}
    best = None
    for rate in tables.OPEN_LOOP_RATES:
        phase = client.open_loop(rate, OPEN_LOOP_STEP_S)
        p99 = tables.percentile(sorted(phase.latencies), 99) * 1e3
        out[f"gateway.open.r{rate}.latency_p99_ms"] = p99
        ok = (p99 <= tables.OPEN_LOOP_LIMIT_MS and not phase.backlog_grew
              and phase.replies == phase.sent)
        if ok or best is None:
            # how late the generator itself ran, at the highest ok rate
            late = sorted(phase.lateness) or [0.0]
            out["gateway.open.lateness_p99_ms"] = (
                tables.percentile(late, 99) * 1e3)
        if not ok:
            break
        best = rate
        out["gateway.open.max_rate_ok"] = float(rate)
    return out


# ----------------------------------------------------------------------
# One run, and its report
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> Dict[str, Any]:
    started = time.monotonic()
    run = Run(workload, seed, seconds, trace)
    res = run.res
    try:
        if workload in tables.GATEWAY_PAYLOAD:
            run.run_gateway()
        else:
            run.run_sim()
    except Exception as exc:      # the result object is still printed
        fail(res, f"harness error: {type(exc).__name__}: {exc}")
    finally:
        run.samplers.stop()
    names = [name for name, *_ in
             (tables.PER_LAYER if trace else tables.END_TO_END)]
    for name in names:            # a failed run still names every metric
        res["metrics"].setdefault(name, 0.0)
    res["attempted"] = max(1, res["attempted"], res["failed"])
    res["correct"] = res["correct"] and res["failed"] == 0
    res["info"]["run_wall_s"] = round(time.monotonic() - started, 2)
    return res


def result_line(res: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": _UNITS[name]}
                    for name, value in res["metrics"].items()}})


def report(res: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the result object."""
    info = res["info"]
    print(f"# {res['workload']}  seed={res['seed']}  "
          f"seconds={res['seconds']:g}  trace={res['trace']}  "
          f"({tables.WORKLOADS[res['workload']]})")
    print(f"# load1={info['load1']:.2f} (own children ~{info['own_load']}) "
          f"noisy={int(info['noisy'])}  run took {info['run_wall_s']} s")
    for key in ("repeats", "raw_walls", "slices", "speeds", "sim_digest",
                "rib_sha256", "raw_req_per_s", "latency_samples",
                "raw_latency_p50_ms", "raw_latency_top"):
        if key in info:
            print(f"# {key}: {info[key]}")
    for note in res["notes"]:
        print(f"# note: {note}")
    bounds = {name: (better, bound)
              for name, _unit, better, bound in tables.END_TO_END}
    # layers that did not run, or were only imported, are left out of
    # the readable block (the result object names them all)
    idle = {layer for layer in tables.LAYERS
            if res["metrics"].get(f"{layer}.self_share", 1.0) < 0.001}
    for name, value in res["metrics"].items():
        layer, _, kind = name.rpartition(".")
        if res["trace"] and (not value or (kind in ("self_share", "calls")
                                           and layer in idle)):
            continue
        extra = ""
        if name in bounds:
            extra = f"  ({bounds[name][0]} is better, bound {bounds[name][1]})"
        print(f"{name:42s} {value:14.6g} {_UNITS[name]}{extra}")
    print(result_line(res), flush=True)


# ----------------------------------------------------------------------
# Recorded sets and their comparison
# ----------------------------------------------------------------------
def environment(seed: int, seconds: float) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=procs.ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_commit": commit,
            "seed": seed, "seconds": seconds, "load1": box_load()[0]}


def record(workloads: Sequence[str], seed: int, seconds: float, trace: int,
           repeats: int, paths: Sequence[str]) -> int:
    """``repeats`` runs per workload into each file, the files taking
    turns run by run (A/B/A/B), so drift of the box hits all alike."""
    sets = [{"environment": environment(seed, seconds), "runs": []}
            for _ in paths]
    ok = True
    for _ in range(repeats):
        for workload in workloads:
            for recorded in sets:
                res = run_workload(workload, seed, seconds, trace)
                report(res)
                recorded["runs"].append(res)
                ok = ok and res["correct"]
    for path, recorded in zip(paths, sets):
        with open(path, "w") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(ok | worse | unresolved, relative change of the median, base
    A's median, positive = worse).  Unresolved: either set's own spread
    is wider than the bound — unless every B run beats every A run."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = (median_b - median_a) / median_a if median_a else 0.0
    if better == "higher":
        change = -change
    clean_win = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if max(tables.spread(a), tables.spread(b)) > bound and not clean_win:
        return "unresolved", change
    return ("worse" if change > bound else "ok"), change


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        set_a = json.load(handle)
    with open(path_b) as handle:
        set_b = json.load(handle)
    bad = False

    def runs(recorded, workload):
        return [r for r in recorded["runs"]
                if r["workload"] == workload and not r["trace"]]

    print(f"A = {path_a}\nB = {path_b}\nchange = (median B - median A) / "
          f"median A, signed so that positive is worse")
    print(f"{'workload':16s} {'metric':12s} {'A q1/median/q3':>30s} "
          f"{'B q1/median/q3':>30s} {'change':>8s} {'bound':>6s}  verdict")
    for workload in tables.WORKLOADS:
        runs_a, runs_b = runs(set_a, workload), runs(set_b, workload)
        if not runs_a or not runs_b:
            continue
        # the bounds of BENCHMARK.json (the contract test keeps the two equal)
        for name, _unit, better, bound in tables.END_TO_END:
            a = [r["metrics"][name] for r in runs_a]
            b = [r["metrics"][name] for r in runs_b]
            word, change = verdict(a, b, better, bound)
            bad = bad or word == "worse"
            quart_a = "/".join(f"{v:.4g}" for v in tables.quartiles(a))
            quart_b = "/".join(f"{v:.4g}" for v in tables.quartiles(b))
            print(f"{workload:16s} {name:12s} {quart_a:>30s} {quart_b:>30s} "
                  f"{change:+8.1%} {bound:6.2f}  {word}")
        share_a = (sum(r["failed"] for r in runs_a)
                   / sum(r["attempted"] for r in runs_a))
        share_b = (sum(r["failed"] for r in runs_b)
                   / sum(r["attempted"] for r in runs_b))
        if share_b > share_a:
            bad = True
            print(f"{workload:16s} failed share rose {share_a:.2%} -> "
                  f"{share_b:.2%}  worse")
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(tables.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=tables.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", nargs="+", metavar="OUT.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json as the tables define it")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeats < 1:
        parser.error("--seconds and --repeats must be positive")
    if args.manifest:
        print(json.dumps(tables.manifest(), indent=2))
        return 0
    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(procs.SRC, "repro")):
        print(f"perf/run.py: no program to measure: {procs.SRC}/repro "
              f"is missing", file=sys.stderr)
        return 2
    procs.install_cleanup()
    workloads = [args.workload] if args.workload else list(tables.WORKLOADS)
    if args.json:
        return record(workloads, args.seed, args.seconds, args.trace or 0,
                      args.repeats, args.json)
    if args.trace is not None:
        traces: Tuple[int, ...] = (args.trace,)
    else:               # one workload: one untraced run; none: everything
        traces = (0,) if args.workload else (0, 1)
    for workload in workloads:
        for trace in traces:
            report(run_workload(workload, args.seed, args.seconds, trace))
    # a failed operation is reported in the result object, not by the
    # exit code: the contract wants exit 0 with the object printed
    return 0


if __name__ == "__main__":
    sys.exit(main())
