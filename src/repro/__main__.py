"""Command-line entry point: run examples, experiments, and scenarios.

Usage::

    python -m repro                 # list what is available
    python -m repro e1              # run one experiment, print its table
    python -m repro e3 e4           # several in sequence
    python -m repro all             # the whole battery
    python -m repro all --jobs 4    # ... swept over a 4-worker pool

    python -m repro scenarios list
    python -m repro scenarios run [--seed N] [--stack rina|ip|both] \
        [--jobs N] fault-storm spec.json gen:3

Every experiment exposes its configuration list as data
(``iter_jobs()``), so the battery is a flat job list dispatched over a
``multiprocessing`` pool (``--jobs N``, or ``REPRO_JOBS``, default the
usable CPU count; ``--jobs 1`` is the in-process serial path).  Rows
merge back **in job order, not completion order** — output is
bit-for-bit independent of scheduling, which ``tests/test_sweeps.py``
enforces.

``scenarios run`` executes each spec on the requested stacks **twice**
and verifies the two runs produce byte-identical traces (the determinism
contract); the exit code is non-zero if any run diverges.
"""

from __future__ import annotations

import json
import os
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .experiments.common import format_table

# the sweep runner (and multiprocessing) is imported by the commands
# that dispatch jobs: `gateway serve` pays for every import it makes
if TYPE_CHECKING:
    from .sweeps import Job, SweepRunner


def _e1_jobs() -> List[Job]:
    from .experiments.e1_two_system import iter_jobs
    return iter_jobs()


def _e2_jobs() -> List[Job]:
    from .experiments.e2_relay import iter_jobs
    return iter_jobs()


def _e3_jobs() -> List[Job]:
    from .experiments.e3_scoped_recovery import iter_jobs
    return iter_jobs()


def _e4_jobs() -> List[Job]:
    from .experiments.e4_multihoming import iter_jobs
    return iter_jobs()


def _e5_jobs() -> List[Job]:
    from .experiments.e5_mobility import iter_jobs
    return iter_jobs()


def _e6_jobs() -> List[Job]:
    from .experiments.e6_scalability import iter_jobs
    return iter_jobs()


def _e6_scale_jobs() -> List[Job]:
    from .experiments.e6_scalability import iter_scale_jobs
    tiers = os.environ.get("REPRO_E6_SCALE_TIERS", "small,medium,large")
    return iter_scale_jobs([t.strip() for t in tiers.split(",") if t.strip()])


def _e7_jobs() -> List[Job]:
    from .experiments.e7_security import iter_jobs
    return iter_jobs()


def _e8_jobs() -> List[Job]:
    from .experiments.e8_utilization import iter_jobs
    return iter_jobs()


def _e9_jobs() -> List[Job]:
    from .experiments.e9_private_addresses import iter_jobs
    return iter_jobs()


def _a1_jobs() -> List[Job]:
    from .experiments.a1_addressing import iter_jobs
    return iter_jobs()


def _a2_jobs() -> List[Job]:
    from .experiments.a2_efcp_policies import iter_jobs
    return iter_jobs()


EXPERIMENTS: Dict[str, tuple] = {
    "e1": ("Fig 1: two-system IPC under loss", _e1_jobs),
    "e2": ("Fig 2: relaying through dedicated systems", _e2_jobs),
    "e3": ("Fig 3/§6.2: wireless-scope DIF vs end-to-end", _e3_jobs),
    "e4": ("Fig 4/§6.3: multihoming failover vs TCP/SCTP", _e4_jobs),
    "e5": ("Fig 5/§6.4: mobility vs Mobile-IP (+A4 ablation)", _e5_jobs),
    "e6": ("§6.5: flat vs recursive routing state", _e6_jobs),
    "e6-scale": ("§6.5 scale tier: 56/211/1,021-system builds, "
                 "wall-clock + events/sec (REPRO_E6_SCALE_TIERS; "
                 "--shards N adds the sharded flood tier, --stateful "
                 "shards the control plane itself)",
                 _e6_scale_jobs),
    "e7": ("§6.1: attack surface", _e7_jobs),
    "e8": ("§6.6: utilization before QoS violation", _e8_jobs),
    "e9": ("§6.5/§6.7: private addressing without NAT", _e9_jobs),
    "a1": ("ablation: addressing policies", _a1_jobs),
    "a2": ("ablation: EFCP policies", _a2_jobs),
}


def _extract_int_flag(args: List[str], flag: str, noun: str
                      ) -> Tuple[List[str], Optional[int], Optional[str]]:
    """Pull ``<flag> N`` (or ``<flag>=N``) out of an argument list.

    Returns (remaining args, value or None, error message or None).
    The flag may appear anywhere; validation rejects 0, negative
    counts, and non-integers, naming the quantity ``noun`` in errors.
    """
    remaining: List[str] = []
    value: Optional[int] = None
    index = 0
    while index < len(args):
        arg = args[index]
        index += 1
        if arg == flag:
            if index >= len(args):
                return remaining, None, f"{flag} requires a value"
            text = args[index]
            index += 1
        elif arg.startswith(flag + "="):
            text = arg[len(flag) + 1:]
        else:
            remaining.append(arg)
            continue
        from .sweeps import parse_worker_count
        try:
            value = parse_worker_count(text, noun=noun)
        except ValueError as exc:
            return remaining, None, f"{flag}: {exc}"
    return remaining, value, None


def _extract_worker_count(args: List[str]
                          ) -> Tuple[List[str], Optional[int], Optional[str]]:
    """Pull ``--jobs N`` out of an argument list."""
    return _extract_int_flag(args, "--jobs", "worker count")


def _extract_shard_count(args: List[str]
                         ) -> Tuple[List[str], Optional[int], Optional[str]]:
    """Pull ``--shards N`` out of an argument list."""
    return _extract_int_flag(args, "--shards", "shard count")


def _extract_bool_flag(args: List[str], flag: str) -> Tuple[List[str], bool]:
    """Pull a valueless ``--flag`` out of an argument list."""
    remaining = [arg for arg in args if arg != flag]
    return remaining, len(remaining) != len(args)


def _sharded_scale_main(shards: int, workers_flag: Optional[int],
                        stateful: bool) -> int:
    """``repro e6-scale --shards N [--stateful]``: the sharded tiers.

    Default is the frame-level flood fan-out; ``--stateful`` runs the
    flat configuration's *control plane* (enrollment + RIEP + LSA
    flooding) region-sharded instead.  Region ``r`` lands on shard
    ``r % N``.  Each job is one whole sharded run whose coordinator
    spawns its own per-region workers, so the sweep itself defaults to
    serial dispatch (``--jobs`` still overrides; inside a pool worker
    the coordinator falls back to in-process rounds).
    """
    from .experiments.e6_scalability import iter_flood_jobs, iter_stateful_jobs
    if stateful:
        tiers = os.environ.get("REPRO_E6_STATEFUL_TIERS", "small,medium")
        iter_fn, tier_env, what = (iter_stateful_jobs,
                                   "REPRO_E6_STATEFUL_TIERS",
                                   "flat control plane (stateful)")
    else:
        tiers = os.environ.get("REPRO_E6_SCALE_TIERS", "small,medium,large")
        iter_fn, tier_env, what = (iter_flood_jobs, "REPRO_E6_SCALE_TIERS",
                                   "flat flooding fan-out")
    try:
        jobs = iter_fn([t.strip() for t in tiers.split(",") if t.strip()],
                       shards=shards)
    except ValueError as exc:
        print(f"{tier_env}: {exc}", file=sys.stderr)
        return 2
    runner, error = _make_runner(1 if workers_flag is None else workers_flag)
    if runner is None:
        print(error, file=sys.stderr)
        return 2
    rows = runner.run(jobs)
    print(format_table(
        rows, title=f"e6-shard: {what}, unsharded vs "
                    f"{shards}-way region shards"))
    return 0


def _resolve_workers(flag_value: Optional[int]) -> int:
    """The effective worker count: ``--jobs`` beats ``REPRO_JOBS`` beats
    the usable CPU count (raises :class:`ValueError` on a bad env value).

    Called only on the paths that actually dispatch jobs — a bad
    ``REPRO_JOBS`` must not break ``repro`` (help) or ``scenarios
    list``, which never touch a pool.
    """
    if flag_value is not None:
        return flag_value
    from .sweeps import default_worker_count
    return default_worker_count()


def _make_runner(workers_flag: Optional[int]
                 ) -> Tuple[Optional[SweepRunner], Optional[str]]:
    """Build the sweep runner, or report the misconfigured knob."""
    from .sweeps import SweepRunner
    try:
        workers = _resolve_workers(workers_flag)
    except ValueError as exc:
        return None, f"REPRO_JOBS: {exc}"
    try:
        return SweepRunner(workers=workers), None
    except ValueError as exc:
        return None, f"REPRO_START_METHOD: {exc}"


def _load_scenarios(names: List[str], seed: int) -> List:
    """Resolve CLI scenario references: canned names, ``.json`` spec
    files, or ``gen:<count>`` batches from the seeded generator."""
    from .scenarios import Scenario, canned, generate_specs
    scenarios = []
    for name in names:
        if name.startswith("gen:"):
            scenarios.extend(generate_specs(seed, int(name[len("gen:"):])))
        elif name.endswith(".json"):
            with open(name) as handle:
                spec = Scenario.from_dict(json.load(handle))
            spec.validate()   # inside the caller's try: a structurally
            scenarios.append(spec)   # bad spec is a load error, not a crash
        else:
            scenarios.append(canned(name))
    return scenarios


def scenarios_main(argv: List[str],
                   workers_flag: Optional[int] = None) -> int:
    """The ``scenarios`` subcommand (``workers_flag`` = parsed ``--jobs``
    value, or None to fall back to ``REPRO_JOBS`` / cpu count)."""
    from .scenarios import CANNED
    if not argv or argv[0] == "list":
        print("canned scenarios:")
        for name in sorted(CANNED):
            print(f"  {name:16s} {CANNED[name]().description}")
        print("\nalso accepted by `run`: a spec .json file, gen:<count>")
        return 0
    if argv[0] != "run":
        print(f"unknown scenarios subcommand {argv[0]!r} (list|run)",
              file=sys.stderr)
        return 2
    args = argv[1:]
    seed, stacks, names = 0, ("rina", "ip"), []
    index = 0
    while index < len(args):
        arg = args[index]
        if arg in ("--seed", "--stack"):
            index += 1
            if index >= len(args):
                print(f"{arg} requires a value", file=sys.stderr)
                return 2
            value = args[index]
            if arg == "--seed":
                try:
                    seed = int(value)
                except ValueError:
                    print(f"--seed requires an integer, got {value!r}",
                          file=sys.stderr)
                    return 2
            else:
                if value not in ("rina", "ip", "both"):
                    print(f"unknown stack {value!r} (rina|ip|both)",
                          file=sys.stderr)
                    return 2
                stacks = ("rina", "ip") if value == "both" else (value,)
        else:
            names.append(arg)
        index += 1
    if not names:
        print("scenarios run: no spec given (canned name, .json, gen:N)",
              file=sys.stderr)
        return 2
    try:
        scenarios = _load_scenarios(names, seed)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except (OSError, ValueError, TypeError) as exc:
        print(f"cannot load scenario spec: {exc}", file=sys.stderr)
        return 2
    runner, error = _make_runner(workers_flag)
    if runner is None:
        print(error, file=sys.stderr)
        return 2
    from .scenarios import determinism_jobs
    rows = runner.run(determinism_jobs(scenarios, seed=seed, stacks=stacks))
    divergent = sum(1 for row in rows if not row["deterministic"])
    print(format_table(rows,
                       columns=["scenario", "stack", "echo", "goodput_mbps",
                                "worst_outage_s", "faults", "deterministic"],
                       title=f"scenarios (seed={seed}, two runs each, "
                             f"jobs={runner.workers})"))
    if divergent:
        print(f"\nDETERMINISM VIOLATION in {divergent} run(s)",
              file=sys.stderr)
        return 1
    print("\nall runs byte-identical across repeats")
    return 0


def main(argv: List[str]) -> int:
    """Entry point; returns a process exit code."""
    argv, workers_flag, error = _extract_worker_count(argv)
    if error:
        print(error, file=sys.stderr)
        return 2
    argv, shards_flag, error = _extract_shard_count(argv)
    if error:
        print(error, file=sys.stderr)
        return 2
    argv, stateful_flag = _extract_bool_flag(argv, "--stateful")
    if shards_flag is not None:
        if argv != ["e6-scale"]:
            print("--shards applies to `repro e6-scale` only",
                  file=sys.stderr)
            return 2
        if shards_flag == 1 and stateful_flag:
            # mirroring the --jobs validation: a contradictory flag
            # combination is an error, not a silently degenerate run —
            # --shards 1 is the unsharded reference row, which does not
            # shard the control plane
            print("--stateful contradicts --shards 1: the unsharded "
                  "reference row has no partition; use --shards 2 or "
                  "more", file=sys.stderr)
            return 2
        return _sharded_scale_main(shards_flag, workers_flag, stateful_flag)
    if stateful_flag:
        print("--stateful applies to `repro e6-scale --shards N` only",
              file=sys.stderr)
        return 2
    if not argv:
        print("repro — 'Networking is IPC' (Day/Matta/Mattar 2008), "
              "executable reproduction\n")
        print("usage: python -m repro <experiment> [...] | all [--jobs N]\n"
              "       python -m repro e6-scale --shards N [--stateful]\n"
              "       python -m repro scenarios list|run ...\n"
              "       python -m repro gateway serve|load|conformance ...\n")
        for key, (title, _jobs_fn) in EXPERIMENTS.items():
            print(f"  {key}   {title}")
        print("\n(see also: pytest benchmarks/ --benchmark-only, examples/)")
        return 0
    if argv[0] == "scenarios":
        return scenarios_main(argv[1:], workers_flag=workers_flag)
    if argv[0] == "gateway":
        from .gateway.cli import gateway_main
        return gateway_main(argv[1:])
    wanted = list(EXPERIMENTS) if argv == ["all"] else argv
    unknown = [key for key in wanted if key not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    runner, error = _make_runner(workers_flag)
    if runner is None:
        print(error, file=sys.stderr)
        return 2
    # one flat job list across all requested experiments, so the pool
    # overlaps work across table boundaries; results stream back in job
    # order, so each experiment's table prints as soon as its slice of
    # the battery completes (a late failure can't eat earlier tables)
    batches: List[Tuple[str, str, List[Job]]] = []
    for key in wanted:
        title, jobs_fn = EXPERIMENTS[key]
        batches.append((key, title, list(jobs_fn())))
    all_jobs = [job for _key, _title, jobs in batches for job in jobs]
    results = runner.imap(all_jobs)
    for key, title, jobs in batches:
        rows = [row for _job in jobs for row in next(results)]
        print(f"\n=== {key}: {title} ===")
        print(format_table(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
