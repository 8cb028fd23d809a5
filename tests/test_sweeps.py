"""Serial-equivalence suite for the multi-process sweep runner.

The contract under test: dispatching a job list over a worker pool is
**invisible in the output** — rows come back in job order with the same
values as the in-process serial path, for every experiment key and for
scenario batches, and every row survives a ``pickle`` and ``json``
round trip (what the pool and the results files respectively do to it).
"""

import json
import math
import os
import pickle

import pytest

from repro.__main__ import EXPERIMENTS
from repro.scenarios import determinism_jobs, generate_specs
from repro.sweeps import (JOBS_ENV, Job, JobError, SweepRunner,
                          default_worker_count, parse_worker_count,
                          stable_rows, worker_info_row)
from repro.sweeps.runner import available_cpu_count

PARALLEL_WORKERS = 4


def _rows_equal(a, b):
    """Deep equality that treats NaN as equal to NaN (rows are metric
    dicts; ``nan != nan`` would make a bitwise-identical row "differ")."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return (list(a.keys()) == list(b.keys())
                and all(_rows_equal(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (len(a) == len(b)
                and all(_rows_equal(x, y) for x, y in zip(a, b)))
    return a == b


def _jobs_for(key):
    """The experiment's job list; e6-scale pinned to the small tier so
    the suite stays fast (coverage is about the key, not the size)."""
    if key == "e6-scale":
        from repro.experiments.e6_scalability import iter_scale_jobs
        return iter_scale_jobs(["small"])
    _title, jobs_fn = EXPERIMENTS[key]
    return list(jobs_fn())


# ----------------------------------------------------------------------
# The tentpole contract: --jobs 1 == --jobs 4, for every experiment key
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", sorted(EXPERIMENTS))
def test_parallel_rows_identical_to_serial(key):
    jobs = _jobs_for(key)
    assert jobs, f"{key}: empty job list"
    serial = SweepRunner(workers=1).run(jobs)
    parallel = SweepRunner(workers=PARALLEL_WORKERS).run(jobs)
    assert len(serial) == len(parallel)
    # wall-clock keys (E6 scale rows) are measurements, not results:
    # they differ run to run even serially and are excluded by contract
    for row_s, row_p in zip(stable_rows(serial), stable_rows(parallel)):
        assert _rows_equal(row_s, row_p), (
            f"{key}: parallel row diverged from serial\n"
            f"  serial:   {row_s}\n  parallel: {row_p}")
    # same order, not just same multiset: row streams match pairwise
    for row in serial:
        assert _rows_equal(pickle.loads(pickle.dumps(row)), row)
        assert _rows_equal(json.loads(json.dumps(row)), row)


def test_scenario_batch_parallel_rows_identical_to_serial():
    specs = generate_specs(3, 3)     # the gen:3 batch of the CLI
    for spec in specs:
        spec.duration = min(spec.duration, 3.0)   # wall-clock hygiene
    jobs = determinism_jobs(specs, seed=3)
    serial = SweepRunner(workers=1).run(jobs)
    parallel = SweepRunner(workers=PARALLEL_WORKERS).run(jobs)
    assert serial == parallel        # scenario rows have no volatile keys
    assert all(row["deterministic"] for row in serial)
    # the trace fingerprint also crossed the process boundary unchanged
    assert ([row["trace_sha256"] for row in serial]
            == [row["trace_sha256"] for row in parallel])
    for row in serial:
        assert _rows_equal(pickle.loads(pickle.dumps(row)), row)
        assert _rows_equal(json.loads(json.dumps(row)), row)


# ----------------------------------------------------------------------
# Job lists are data
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", sorted(EXPERIMENTS))
def test_jobs_are_picklable_pure_data(key):
    for job in _jobs_for(key):
        assert pickle.loads(pickle.dumps(job)) == job
        json.dumps(job.kwargs)       # kwargs are JSON-safe scalars
        assert job.group and job.label
        job.resolve()                # target names a real callable


def test_a5_jobs_execute_through_the_pool():
    # a5 has no CLI registry key; cover its job form here (scaled down)
    from repro.experiments.a5_depth import iter_jobs
    jobs = iter_jobs(depths=[1], total_bytes=30_000)
    serial = SweepRunner(workers=1).run(jobs)
    parallel = SweepRunner(workers=2).run(jobs + jobs)
    assert parallel == serial + serial


# ----------------------------------------------------------------------
# Runner mechanics
# ----------------------------------------------------------------------
def test_merge_is_job_order_not_completion_order():
    # the first job finishes last; its rows must still come back first
    jobs = [Job("repro.sweeps.job:echo_row",
                kwargs={"index": 0, "delay_s": 0.3})]
    jobs += [Job("repro.sweeps.job:echo_row", kwargs={"index": i})
             for i in range(1, 6)]
    rows = SweepRunner(workers=PARALLEL_WORKERS).run(jobs)
    assert [row["index"] for row in rows] == list(range(6))


def test_imap_streams_per_job_results_in_job_order():
    # the CLI prints each experiment's table from this stream: the slow
    # first job must come out first, then the rest, incrementally
    jobs = [Job("repro.sweeps.job:echo_row",
                kwargs={"index": 0, "delay_s": 0.2})]
    jobs += [Job("repro.sweeps.job:echo_row", kwargs={"index": i})
             for i in range(1, 4)]
    stream = SweepRunner(workers=2).imap(jobs)
    assert next(stream)[0]["index"] == 0
    assert [rows[0]["index"] for rows in stream] == [1, 2, 3]


def test_pool_really_uses_other_processes():
    jobs = [Job("repro.sweeps.job:worker_info_row", kwargs={"index": i})
            for i in range(4)]
    rows = SweepRunner(workers=2).run(jobs)
    assert all(row["pid"] != os.getpid() for row in rows)
    # and the serial path really stays in-process
    rows = SweepRunner(workers=1).run(jobs)
    assert all(row["pid"] == os.getpid() for row in rows)


def test_spawn_start_method_round_trips_jobs():
    # spawn re-imports everything in the child: catches pickling and
    # import-order bugs the default fork start method masks
    jobs = [Job("repro.sweeps.job:echo_row", kwargs={"index": i})
            for i in range(3)]
    rows = SweepRunner(workers=2, start_method="spawn").run(jobs)
    assert [row["index"] for row in rows] == [0, 1, 2]


def test_run_grouped_preserves_group_and_job_order():
    jobs = [Job("repro.sweeps.job:echo_row", kwargs={"index": i},
                group="g1" if i % 2 == 0 else "g2")
            for i in range(6)]
    grouped = SweepRunner(workers=1).run_grouped(jobs)
    assert list(grouped) == ["g1", "g2"]
    assert [row["index"] for row in grouped["g1"]] == [0, 2, 4]
    assert [row["index"] for row in grouped["g2"]] == [1, 3, 5]


def test_single_job_row_dict_is_wrapped_in_a_list():
    job = Job("repro.sweeps.job:echo_row", kwargs={"value": 7})
    assert job.run() == [{"value": 7, "delay_s": 0.0}]


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value", [0, -1, "0", "-3", "two", None, 1.5, ""])
def test_parse_worker_count_rejects_non_positive_and_non_integers(value):
    with pytest.raises(ValueError):
        parse_worker_count(value)


@pytest.mark.parametrize("value,expected", [(1, 1), ("1", 1), ("8", 8), (3, 3)])
def test_parse_worker_count_accepts_positive_integers(value, expected):
    assert parse_worker_count(value) == expected


def auto_mode():
    """What ``mode="auto"`` resolves to for a 2-region plan here."""
    from repro.experiments.e6_scalability import (build_flood_spec,
                                                  flood_assignment)
    from repro.shard import RegionPlan, ShardCoordinator
    plan = RegionPlan(build_flood_spec(2, 2), flood_assignment(2, 2, 2))
    return ShardCoordinator(plan, {"kind": "flood"}).mode


class TestUsableCpuCount:
    """The default worker count (and the shard coordinator's auto mode)
    follow the CPUs this process may run on, not the machine's."""

    def test_affinity_mask_beats_the_machine_count(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3},
                            raising=False)
        assert available_cpu_count() == 1
        assert default_worker_count() == 1
        assert auto_mode() == "inline"
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 5},
                            raising=False)
        assert default_worker_count() == 3
        assert auto_mode() == "process"

    def test_platform_without_affinity_falls_back_to_cpu_count(
            self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert default_worker_count() == 6
        assert auto_mode() == "process"
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_worker_count() == 1
        assert auto_mode() == "inline"

    def test_repro_jobs_still_wins(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setenv(JOBS_ENV, "5")
        assert default_worker_count() == 5


@pytest.mark.parametrize("target", [
    "no-colon", ":func", "mod:", "repro.sweeps.job:not_there",
    "definitely.not.a.module:fn",
])
def test_malformed_job_targets_raise_joberror(target):
    with pytest.raises(JobError):
        Job(target).run()


def test_unknown_start_method_rejected_at_construction():
    # not at dispatch time, when serial output may already exist
    with pytest.raises(ValueError, match="start method"):
        SweepRunner(workers=2, start_method="Spawn")


def test_non_row_results_raise_joberror():
    # a real callable whose return value is not a row dict / row list
    job = Job("repro.experiments.common:percentile",
              kwargs={"values": [1.0, 2.0], "pct": 50})
    with pytest.raises(JobError):
        job.run()
