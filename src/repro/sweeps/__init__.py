"""Multi-process sweep execution.

Every table in the reproduction is a *sweep*: a list of independent
configurations (an experiment parameter point, or a scenario spec on one
stack), each producing one or more JSON-safe row dicts.  The experiment
modules expose those configuration lists as data (``iter_jobs()``), and
this package executes them:

* :class:`~repro.sweeps.job.Job` — one configuration as picklable pure
  data: a ``"module:function"`` target plus JSON-safe kwargs;
* :class:`~repro.sweeps.runner.SweepRunner` — dispatches jobs over a
  ``multiprocessing`` pool and merges the row dicts back **in job
  order**, so the output is bit-for-bit independent of scheduling
  (``workers=1`` is a plain in-process loop, the reference semantics);
* worker-count plumbing for the CLI
  (``--jobs N`` / ``REPRO_JOBS``, default the usable CPU count).

The serial-equivalence contract — rows from ``--jobs N`` are identical
to ``--jobs 1`` up to :data:`WALL_CLOCK_KEYS` — is enforced by
``tests/test_sweeps.py``; this is also the seam the ROADMAP's sharded
engine will plug into (per-region engines are just jobs with a frame
exchange protocol on top).
"""

from .job import Job, JobError, echo_row, worker_info_row
from .runner import (JOBS_ENV, START_METHOD_ENV, WALL_CLOCK_KEYS,
                     SweepRunner, default_worker_count, parse_worker_count,
                     stable_row, stable_rows)

__all__ = [
    "Job", "JobError", "JOBS_ENV", "START_METHOD_ENV", "SweepRunner",
    "WALL_CLOCK_KEYS", "default_worker_count", "echo_row",
    "parse_worker_count", "stable_row", "stable_rows", "worker_info_row",
]
