"""Dispatch sweep jobs over a ``multiprocessing`` pool, merge in job order.

The merge contract is the whole point: results come back **in job
order, not completion order** (``Pool.map`` over an ordered job list),
so the row stream is bit-for-bit independent of worker scheduling and
``--jobs 1`` vs ``--jobs N`` differ only in wall-clock — up to
:data:`WALL_CLOCK_KEYS`, the row keys that *are* wall-clock
measurements and therefore vary run to run even serially.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Dict, List, Optional, Sequence

from .job import Job

#: ``--jobs`` default when the flag is absent.
JOBS_ENV = "REPRO_JOBS"

#: Override the multiprocessing start method ("fork", "spawn",
#: "forkserver"); unset = the platform default.  CI runs the parallel
#: smoke job under "spawn" to catch pickling bugs fork would mask.
START_METHOD_ENV = "REPRO_START_METHOD"

#: Row keys that are wall-clock measurements (E6 scale rows): real and
#: useful, but not reproducible — excluded from serial-equivalence
#: comparisons and from any byte-identity claim about sweep output.
WALL_CLOCK_KEYS = frozenset({"build_s", "wall_s", "events_per_s",
                             "peak_mem_mb"})


def parse_worker_count(value: Any, noun: str = "worker count") -> int:
    """Validate a worker count from the CLI or environment.

    Raises :class:`ValueError` on anything but an integer >= 1 — a sweep
    with zero or negative workers is a configuration error, not a
    request for the default.  ``noun`` names the quantity in the error
    message (the CLI reuses this validator for ``--shards``).
    """
    try:
        # via str() so 1.5 and True are rejected instead of truncated
        count = int(str(value).strip())
    except (TypeError, ValueError):
        raise ValueError(f"{noun} must be an integer >= 1, got {value!r}")
    if count < 1:
        raise ValueError(f"{noun} must be an integer >= 1, got {count}")
    return count


def available_cpu_count() -> int:
    """CPUs this process may run on: the scheduler affinity mask where
    the platform has one (``taskset``, a cpuset-limited container),
    else ``os.cpu_count()`` — which counts the machine's CPUs whether
    or not this process can use them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_worker_count() -> int:
    """``REPRO_JOBS`` if set (validated), else the usable CPU count."""
    env = os.environ.get(JOBS_ENV)
    if env:
        return parse_worker_count(env)
    return available_cpu_count()


def resolve_start_method(start_method: Optional[str] = None
                         ) -> Optional[str]:
    """``start_method``, else ``REPRO_START_METHOD``, else None (the
    platform default).

    Raises :class:`ValueError` on a name this platform's
    ``multiprocessing`` does not know, so a runner fails at
    construction, not mid-dispatch after output has been produced.
    """
    method = start_method or os.environ.get(START_METHOD_ENV) or None
    if method is not None:
        known = multiprocessing.get_all_start_methods()
        if method not in known:
            raise ValueError(f"unknown start method {method!r}; "
                             f"known: {', '.join(known)}")
    return method


def _execute(job: Job) -> List[Dict[str, Any]]:
    # module-level so the pool can pickle it by reference under spawn
    return job.run()


class SweepRunner:
    """Execute a job list with ``workers`` processes; merge in job order."""

    def __init__(self, workers: Optional[int] = None,
                 start_method: Optional[str] = None) -> None:
        self.workers = (default_worker_count() if workers is None
                        else parse_worker_count(workers))
        self.start_method = resolve_start_method(start_method)

    def map(self, jobs: Sequence[Job]) -> List[List[Dict[str, Any]]]:
        """Per-job row lists, in job order.

        ``workers=1`` (or a single job) is the in-process serial path —
        no pool, no pickling, the reference semantics the parallel path
        must reproduce byte for byte.
        """
        return list(self.imap(jobs))

    def imap(self, jobs: Sequence[Job]):
        """Yield each job's row list **in job order** as it completes.

        Consumers see results incrementally (the CLI prints each
        experiment's table as soon as its slice of the battery is done,
        instead of buffering everything behind the slowest job), while
        the pool keeps working ahead on later jobs.
        """
        jobs = list(jobs)
        if self.workers == 1 or len(jobs) <= 1:
            for job in jobs:
                yield job.run()
            return
        context = multiprocessing.get_context(self.start_method)
        processes = min(self.workers, len(jobs))
        with context.Pool(processes=processes) as pool:
            # chunksize=1: jobs are coarse (whole simulations), so hand
            # them out one at a time instead of pre-chunking the tail
            # onto a single worker
            yield from pool.imap(_execute, jobs, chunksize=1)

    def run(self, jobs: Sequence[Job]) -> List[Dict[str, Any]]:
        """The merged row stream: each job's rows, concatenated in job
        order."""
        return [row for rows in self.map(jobs) for row in rows]

    def run_grouped(self, jobs: Sequence[Job]
                    ) -> Dict[str, List[Dict[str, Any]]]:
        """Rows regrouped by ``job.group`` (insertion order preserved:
        first-seen group first, job order within each group)."""
        grouped: Dict[str, List[Dict[str, Any]]] = {}
        for job in jobs:
            grouped.setdefault(job.group, [])
        for job, rows in zip(jobs, self.map(jobs)):
            grouped[job.group].extend(rows)
        return grouped


def stable_row(row: Dict[str, Any]) -> Dict[str, Any]:
    """The row minus its wall-clock keys — the part of a row the
    serial-equivalence contract covers."""
    return {key: value for key, value in row.items()
            if key not in WALL_CLOCK_KEYS}


def stable_rows(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """:func:`stable_row` over a row list."""
    return [stable_row(row) for row in rows]
