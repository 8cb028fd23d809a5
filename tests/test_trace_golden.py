"""Golden scenario-trace fingerprints.

The hot-path work (deque FIFOs everywhere, incremental SPF, memoized
two-way graphs, size caches, engine heap tuples) is required to be
**byte-invisible**: a canned spec must produce exactly the trace it
produced before the overhaul.  These SHA-256 fingerprints were captured
from the pre-overhaul tree (PR 1 tip, seed 0, rina stack); any
optimization that changes scheduling order, event counts, drop decisions,
or float arithmetic anywhere in the stack shows up here as a mismatch.

When a *deliberate* behavior change lands (new protocol feature, changed
policy default), re-capture with::

    PYTHONPATH=src python -c "
    import hashlib
    from repro.scenarios import CANNED, ScenarioRunner
    for name in sorted(CANNED):
        r = ScenarioRunner(CANNED[name](), seed=0); r.run('rina')
        print(name, hashlib.sha256(r.trace.encode()).hexdigest())"

and say so in the commit message — never re-capture to make an
optimization pass.
"""

import hashlib

import pytest

from repro.scenarios import CANNED, ScenarioRunner

#: name -> sha256 of the rina-stack trace at seed 0, captured pre-overhaul.
#: (ring-of-stars joined the registry after the capture; its determinism
#: is covered by the generic two-run checks instead.)
GOLDEN = {
    "e3-e2e": "2361c1e40f69ce17cc263edcf459238bd391cf697e07bc5b6f57521f24a1f9e3",
    "e3-scoped": "2294a2261316ea09a8ed4d9557993215f5dad2d199e25bc63d20bb5929b18852",
    "e4-multihoming": "5a8c41b5117aa5829e25120c6f6868458df0a960aa22ce2b9e79f62cb304032f",
    "e5-mobility": "3dbcc7040c3210e6c10e6939a7252e0d92aff7335c1f25a59a8fcbf19ee48ab4",
    "fault-storm": "23d41f038bc9447f93e4776e66238faf98c035ca2d7bf2d169c0cbb32df91410",
    # network-condition families, captured at their introduction (the
    # jitter/shaping/corruption/reorder models + injector windows):
    "flash-crowd":
        "5fc7bdde8ceb3ce682f5912b4bf85a7fd161df663387a7e6acb84ada8c9b4915",
    "diurnal-load":
        "1ee533e2b19f0986cf26cc77e6af512633e8827d0ba2854b4bb253646a2e98b7",
    "rolling-degradation":
        "dd0037cf8a79a8d360cc529471e4a9d85590fa2675ba2143729ae97702169907",
    "corruption-storm":
        "9e35a524db146ea084edb9dca55b2b10018b66271fa27ed367ca2dc181ab8739",
}


#: shard index -> sha256 of that shard's trace for the canned 2-region
#: split (E6 plant at 2x3, all-nodes-announce flood, seed 0) — captured
#: when the async-grants protocol landed.  (The previous captures' final
#: ``clock=`` line rendered the *parked* engine clock, which is an
#: artifact of the round protocol's last grant horizon; the line now
#: renders ``Engine.last_event_time`` — the causal end of the run — so
#: one capture is bit-identical across per-channel, global-min, and
#: async-grants.  Every event, counter, and delivery row is unchanged
#: from the PR-6 capture.)  A mismatch means a change leaked into the
#: frame-exchange protocol's observable behavior: round structure,
#: injection order, boundary arrival arithmetic, or the flood workload
#: itself.
GOLDEN_SHARDS = {
    0: "1adc9abf4f35a353e32ff7a7499b8d466b33fc5fbf7dbad82311c5e1442a405f",
    1: "cb953bd90a0c9cbcf399934375373c6cffd98c5d7114448124120bc1f7013f00",
}


#: name -> sha256 of the ip-stack trace at seed 0, captured while the IP
#: baseline still computed its routes with a third-party graph library.
#: The in-repo breadth-first search that replaced it must reproduce
#: every route, tie-breaks included.
GOLDEN_IP = {
    "corruption-storm":
        "12da00f97a68eb511c053f34d7b66b8a90fbae376d4f012876d3220334133638",
    "diurnal-load":
        "6d47b8425a93745f16eadf3e6167b3226f11c1e5c24e26b0038e285994eb883c",
    "e3-e2e": "8f7707c7747c13efaf9b71d51220341a0a7357d44bd02985728a3e53ad48f4df",
    "e3-scoped":
        "1a25d1a98bef9bc6f9ce71d576a9f2f81c4d935cff9b42019c4138aa480cc844",
    "e4-multihoming":
        "0fa8d084a3ea8f003ef3c7ed7147ac4f0111b800179a90b44625e2052b8f96aa",
    "e5-mobility":
        "63b3c707b1c6bee37e2eda516764bbcbb8df4347fe9d71b9ffc0d6e17ca703e3",
    "fault-storm":
        "ac01567769a01cf3b0737f21fe63f8bfc25cd54e01b2aa90936509a33defb636",
    "flash-crowd":
        "d50331a36daff98c9e282be865f53e8ba36be08892327b55179b5d4802416600",
    "ring-of-stars":
        "43dc8982e68ee0fd9597e6b1c14a931368b3073170b746e2f449582a2e076041",
    "rolling-degradation":
        "b794734ef34e06e58e1221817dee3dc099092c25958ef2ab87eefdcde3311185",
}

#: seed -> the ``digest`` perf/child.py reports for its ``data_clean_ip``
#: job (the sha256 of the hex sha256 of the trace), same capture.
GOLDEN_DATA_CLEAN_IP = {
    0: "2ab0be6da277fd0dd79926e049f1cb3bb45575795f843ec25a08dc71a6f471da",
    1: "83562d63cca869be5f7e22b765df817628bcf49a89cdda2c96042068c0880272",
}


def test_sharded_traces_match_pinned_fingerprints():
    from repro.experiments.e6_scalability import (build_flood_spec,
                                                  flood_assignment)
    from repro.shard import RegionPlan, all_nodes_announce, run_sharded
    spec = build_flood_spec(2, 3)
    plan = RegionPlan(spec, flood_assignment(2, 3, 2))
    result = run_sharded(plan, all_nodes_announce(spec.nodes), seed=0,
                         mode="inline")
    assert {s["shard"]: s["trace_sha256"] for s in result.shards} == \
        GOLDEN_SHARDS, ("per-shard trace diverged from the capture — a "
                        "change leaked into the shard protocol's "
                        "observable behavior")


def test_sharded_fingerprints_reproduce_inside_pool_workers():
    """Per-shard traces produced by a sharded run *inside a pool worker*
    (spawn start method, coordinator in its in-process fallback) match
    the pinned digests — the shard analogue of the scenario-trace worker
    check below."""
    from repro.sweeps import Job, SweepRunner
    jobs = [Job("repro.experiments.e6_scalability:shard_trace_digests",
                kwargs={"regions": 2, "hosts_per_region": 3, "shards": 2,
                        "seed": 0},
                group="golden-shard", label="canned 2-region split")] * 2
    rows = SweepRunner(workers=2, start_method="spawn").run(jobs)
    assert {row["shard"]: row["sha256"] for row in rows} == GOLDEN_SHARDS


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canned_trace_matches_pre_overhaul_fingerprint(name):
    runner = ScenarioRunner(CANNED[name](), seed=0)
    runner.run("rina")
    digest = hashlib.sha256(runner.trace.encode()).hexdigest()
    assert digest == GOLDEN[name], (
        f"{name}: trace diverged from the pre-overhaul capture — an "
        f"optimization leaked into observable behavior")


@pytest.mark.parametrize("name", sorted(GOLDEN_IP))
def test_canned_ip_trace_matches_fingerprint(name):
    runner = ScenarioRunner(CANNED[name](), seed=0)
    runner.run("ip")
    digest = hashlib.sha256(runner.trace.encode()).hexdigest()
    assert digest == GOLDEN_IP[name], (
        f"{name}: ip-stack trace diverged from the capture — the IP "
        f"baseline's routes (or their tie-breaks) changed")


@pytest.mark.parametrize("seed", sorted(GOLDEN_DATA_CLEAN_IP))
def test_benchmark_data_clean_ip_digest_matches_fingerprint(seed):
    call, check = _perf_child().prepare("data_clean_ip", seed)
    out = check(call())
    assert (out["attempted"], out["failed"]) == (503, 0)
    assert out["digest"] == GOLDEN_DATA_CLEAN_IP[seed]


def _perf_child():
    """perf/child.py, loaded by path (perf/ is scripts, not a package)."""
    import importlib.util
    import os
    import sys
    perf = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perf")
    if perf not in sys.path:
        sys.path.insert(0, perf)        # child.py imports its siblings
    spec = importlib.util.spec_from_file_location(
        "perf_child", os.path.join(perf, "child.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_canned_spec_is_fingerprinted_or_newer():
    # new canned specs are fine (no pre-overhaul capture exists), but a
    # *removed* golden entry means coverage silently shrank
    assert set(GOLDEN) <= set(CANNED)
    assert set(GOLDEN_IP) == set(CANNED)


def test_golden_fingerprints_reproduce_inside_pool_workers():
    """Traces produced in a worker process match the pinned in-process
    SHA-256s.

    Run under the ``spawn`` start method deliberately: the child
    re-imports the whole stack from scratch, so fork-inherited state
    can't mask platform-dependent drift (RNG seeding, string interning,
    import order) or pickling bugs in the job plumbing.  Any divergence
    between an in-process trace and a worker trace would silently break
    the sweep runner's serial-equivalence contract.
    """
    from repro.sweeps import Job, SweepRunner
    jobs = [Job("repro.scenarios.runner:canned_trace_digest",
                kwargs={"name": name}, group="golden", label=name)
            for name in sorted(GOLDEN)]
    rows = SweepRunner(workers=2, start_method="spawn").run(jobs)
    assert [row["name"] for row in rows] == sorted(GOLDEN)
    for row in rows:
        assert row["sha256"] == GOLDEN[row["name"]], (
            f"{row['name']}: worker-process trace diverged from the pinned "
            f"in-process fingerprint — fork/spawn-dependent state leaked "
            f"into the simulation")


def test_golden_ip_fingerprints_reproduce_inside_pool_workers():
    """The ip-stack pins, reproduced under ``spawn``: a fresh interpreter
    that imports the IP baseline from scratch installs the same routes."""
    from repro.sweeps import Job, SweepRunner
    jobs = [Job("repro.scenarios.runner:canned_trace_digest",
                kwargs={"name": name, "stack": "ip"}, group="golden-ip",
                label=name)
            for name in sorted(GOLDEN_IP)]
    rows = SweepRunner(workers=2, start_method="spawn").run(jobs)
    assert {row["name"]: row["sha256"] for row in rows} == GOLDEN_IP
