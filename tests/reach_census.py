"""Reachability census: which ``src/repro`` functions does anything run?

Runs every surface of the repository with ``tests/census`` on
``PYTHONPATH`` (its ``sitecustomize`` records each ``src/repro`` code
object a process enters, in every process), then sets the result against
an AST inventory of ``src/repro``:

* ``workloads``  -- the seven ``perf/run.py`` workloads (one untraced
  repeat each, seed 0) and ``perf/probes.py``;
* ``commands``   -- every ``repro`` command in the usage strings, at its
  smallest size (``gateway serve`` driven by ``gateway load``);
* ``examples``   -- ``examples/*.py``;
* ``benchmarks`` -- ``benchmarks/bench_*.py`` under pytest, and the CI
  scripts beside them;
* ``tests``      -- each tier-1 test file in its own pytest run, so a
  function reached only by its own unit tests says which.

Usage::

    python tests/reach_census.py --work /tmp/census            # run + report
    python tests/reach_census.py --work /tmp/census --report   # report only
    python tests/reach_census.py --work /tmp/census --only examples

The report (markdown, on stdout) is the per-module reach table and the
list of functions reached by nothing or by tests only.  Inventory:
module-level functions and the methods of module-level (and nested)
classes; nested functions count as part of their enclosing function.
Lines are a definition's own lines, decorators to last line.  The file
is not collected by pytest and needs nothing outside the standard
library and the test dependencies.  Memory stays near one simulation at
a time (the 100k smoke peaks around 0.7 GB); a full run takes about six
minutes on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CENSUS_PATH = os.path.join(HERE, "census")
SURFACES = ("workloads", "commands", "examples", "benchmarks", "tests")
WORKLOADS = ("control_flat", "data_clean", "data_lossy", "flood",
             "shard_stateful", "gateway_echo", "gateway_echo_8k")

Key = Tuple[str, int]           # (path under src/, first line)


# -- running ------------------------------------------------------------
def _env(out_dir: str, **extra: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([CENSUS_PATH, SRC])
    env["REPRO_CENSUS_OUT"] = out_dir
    env.update(extra)
    return env


def _run(argv: List[str], out_dir: str, timeout: float = 900,
         **extra: str) -> None:
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=_env(out_dir, **extra),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    tail = proc.stderr.strip().splitlines()[-1:] if proc.returncode else []
    print(f"  [{proc.returncode}] {time.monotonic() - started:6.1f} s  "
          f"{' '.join(argv[1:])} {' '.join(tail)}", file=sys.stderr,
          flush=True)


def _repro(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def run_workloads(out_dir: str) -> None:
    for workload in WORKLOADS:
        _run([sys.executable, "perf/run.py", "--workload", workload,
              "--seed", "0", "--seconds", "1", "--repeats", "1",
              "--trace", "0"], out_dir)
    _run([sys.executable, "perf/probes.py", "0"], out_dir)


def _gateway_serve_and_load(out_dir: str) -> None:
    server = subprocess.Popen(
        _repro("gateway", "serve", "--host", "127.0.0.1", "--tcp-port", "0",
               "--udp-port", "0", "--duration", "30"),
        cwd=ROOT, env=_env(out_dir), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    try:
        banner = server.stdout.readline()
        fields = dict(part.split("=", 1) for part in banner.split()
                      if "=" in part)
        for extra in ([], ["--workload", "rpc"],
                      ["--transport", "udp", "--port", fields["udp"]]):
            port = [] if "--port" in extra else ["--port", fields["tcp"]]
            _run(_repro("gateway", "load", *port, "--clients", "4",
                        "--conns", "2", "--pings", "5", *extra), out_dir)
    finally:
        server.send_signal(signal.SIGINT)       # stops and prints stats
        server.wait(timeout=60)
        server.stdout.close()


def run_commands(out_dir: str) -> None:
    small = {"REPRO_E6_SCALE_TIERS": "small",
             "REPRO_E6_STATEFUL_TIERS": "small"}
    _run(_repro(), out_dir)
    _run(_repro("all", "--jobs", "1"), out_dir, **small)
    _run(_repro("e1", "e2", "--jobs", "2"), out_dir,
         REPRO_START_METHOD="spawn")
    for flags in ([], ["--stateful"]):
        _run(_repro("e6-scale", "--shards", "2", *flags), out_dir, **small)
    _run(_repro("e6-scale", "--shards", "1"), out_dir, **small)
    _run(_repro("scenarios", "list"), out_dir)
    sys.path.insert(0, SRC)
    from repro.scenarios import CANNED
    spec_dir = tempfile.mkdtemp(prefix="census-spec-")
    try:
        spec_path = os.path.join(spec_dir, "spec.json")
        with open(spec_path, "w") as handle:
            json.dump(CANNED["fault-storm"]().to_dict(), handle)
        _run(_repro("scenarios", "run", "--seed", "0", "--jobs", "1",
                    *sorted(CANNED), "gen:2", spec_path), out_dir)
    finally:
        shutil.rmtree(spec_dir)
    _run(_repro("gateway"), out_dir)
    _run(_repro("gateway", "conformance"), out_dir)
    _gateway_serve_and_load(out_dir)


def run_examples(out_dir: str) -> None:
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        _run([sys.executable, path], out_dir)


def run_benchmarks(out_dir: str) -> None:
    scratch = tempfile.mkdtemp(prefix="census-bench-")
    try:
        benches = sorted(glob.glob(os.path.join(ROOT, "benchmarks",
                                                "bench_*.py")))
        # timed rounds run with tracing paused; disabled, each benchmarked
        # call runs once, traced
        _run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
              "--benchmark-disable", *benches], out_dir,
             REPRO_SCENARIO_BUDGET_S="10",
             REPRO_BENCH_JSON=os.path.join(scratch, "e6.json"),
             REPRO_BENCH_JSON_S1=os.path.join(scratch, "s1.json"))
    finally:
        shutil.rmtree(scratch)
    for script in ("smoke_gateway_load.py", "check_e6_scale_reference.py",
                   "smoke_e6_xlarge.py"):
        _run([sys.executable, os.path.join("benchmarks", script)], out_dir)


def run_tests(out_dir: str) -> None:
    files = sorted(glob.glob(os.path.join(ROOT, "tests", "test_*.py")))
    files.append(os.path.join(ROOT, "perf", "test_perf_contract.py"))
    for path in files:
        name = os.path.splitext(os.path.basename(path))[0]
        _run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
              path], os.path.join(out_dir, name))


RUNNERS = {"workloads": run_workloads, "commands": run_commands,
           "examples": run_examples, "benchmarks": run_benchmarks,
           "tests": run_tests}


# -- reading ------------------------------------------------------------
def read_reached(directory: str) -> Set[Key]:
    """Every (path, first line) recorded under ``directory``; a line cut
    short by a killed process does not parse and is skipped."""
    reached: Set[Key] = set()
    for path in glob.glob(os.path.join(directory, "**", "*.reach"),
                          recursive=True):
        with open(path) as handle:
            for line in handle:
                parts = line.rstrip("\n").split("\t")
                if len(parts) == 3 and parts[1].isdigit() and line.endswith("\n"):
                    reached.add((parts[0], int(parts[1])))
    return reached


class Definition(NamedTuple):
    path: str           # under src/
    qualname: str
    first: int          # first line, decorators included: co_firstlineno
    lines: int

    @property
    def key(self) -> Key:
        return (self.path, self.first)

    @property
    def module(self) -> str:
        return self.path[:-3].replace("/", ".")


def inventory() -> List[Definition]:
    """Module-level functions and class methods under ``src/repro``."""
    found: List[Definition] = []

    def walk(body, path: str, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(node.body, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno
                                             for d in node.decorator_list])
                found.append(Definition(path, prefix + node.name, first,
                                        node.end_lineno - first + 1))

    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"),
                                 recursive=True)):
        rel = os.path.relpath(path, SRC).replace(os.sep, "/")
        with open(path) as handle:
            walk(ast.parse(handle.read()).body, rel, "")
    return found


def report(work: str) -> str:
    reached = {surface: read_reached(os.path.join(work, surface))
               for surface in SURFACES if surface != "tests"}
    by_test: Dict[str, Set[Key]] = {}
    tests_dir = os.path.join(work, "tests")
    if os.path.isdir(tests_dir):
        for name in sorted(os.listdir(tests_dir)):
            by_test[name] = read_reached(os.path.join(tests_dir, name))
    reached["tests"] = set().union(*by_test.values()) if by_test else set()
    missing = [s for s in SURFACES if not os.path.isdir(os.path.join(work, s))]

    defs = inventory()
    modules: Dict[str, List[Definition]] = defaultdict(list)
    for d in defs:
        modules[d.module].append(d)

    out: List[str] = []
    total_lines = sum(d.lines for d in defs)
    nothing = [d for d in defs
               if all(d.key not in reached[s] for s in SURFACES)]
    tests_only = [d for d in defs
                  if d.key in reached["tests"]
                  and all(d.key not in reached[s]
                          for s in SURFACES if s != "tests")]
    out.append(f"{len(defs):,} functions ({total_lines:,} lines) in src/; "
               f"{len(nothing)} ({sum(d.lines for d in nothing):,} lines) "
               f"reached by nothing; {len(tests_only)} "
               f"({sum(d.lines for d in tests_only):,} lines) reached only "
               f"by tests.")
    if missing:
        out.append(f"(surfaces not run: {', '.join(missing)})")
    out.append("")
    out.append("| module | functions | " + " | ".join(SURFACES)
               + " | nothing |")
    out.append("|---|---|" + "---|" * (len(SURFACES) + 1))
    for module in sorted(modules):
        entries = modules[module]
        cells = [str(sum(d.key in reached[s] for d in entries))
                 for s in SURFACES]
        dead = sum(1 for d in entries if d in nothing)
        out.append(f"| `{module}` | {len(entries)} | " + " | ".join(cells)
                   + f" | {dead} |")

    def listing(title: str, entries: List[Definition],
                with_tests: bool) -> None:
        out.append("")
        out.append(f"{title}:")
        out.append("")
        for d in sorted(entries, key=lambda d: d.key):
            note = ""
            if with_tests:
                files = [name for name, keys in by_test.items()
                         if d.key in keys]
                note = f" -- {', '.join(files)}"
            out.append(f"- `{d.module}:{d.qualname}` ({d.lines}){note}")

    listing("Reached by nothing", nothing, False)
    listing("Reached only by tests", tests_only, True)
    return "\n".join(out) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", required=True,
                        help="directory for the per-process records")
    parser.add_argument("--only", nargs="*", choices=SURFACES,
                        help="run these surfaces only (default: all)")
    parser.add_argument("--report", action="store_true",
                        help="only report on what --work already holds")
    args = parser.parse_args(argv)
    if not args.report:
        for surface in args.only or SURFACES:
            out_dir = os.path.join(args.work, surface)
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
            print(f"{surface}:", file=sys.stderr, flush=True)
            RUNNERS[surface](out_dir)
    sys.stdout.write(report(args.work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
