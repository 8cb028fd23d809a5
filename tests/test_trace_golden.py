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

Every pin is split in two.  The SHA-256 covers the trace with the
engine's event count masked (:func:`mask_events`); the count itself is
pinned apart, exactly, in the matching ``*_EVENTS`` dict.  How many
events a run dispatches is a cost, not an observable: a change that
only removes events (an idle RMT port that sends at once, a clean link
that schedules no serialization-end event) edits the ``*_EVENTS`` dicts
and nothing else.  The masked SHAs were captured on the tree before any
such change and stay byte-untouched — that is the proof that every
delivery time, drop, counter and RNG draw came out the same.
"""

import functools
import hashlib
import json
import re

import pytest

from repro.scenarios import CANNED, ScenarioRunner

_EVENTS = re.compile(r'("events": |events=)(\d+)')


def mask_events(text):
    """The trace with its engine event count(s) replaced by ``N``."""
    return _EVENTS.sub(r"\1N", text)


def events_in(text):
    """The engine event count a trace renders (its only one)."""
    (count,) = [int(match.group(2)) for match in _EVENTS.finditer(text)]
    return count


def masked_sha256(text):
    return hashlib.sha256(mask_events(text).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def canned_run(name, stack):
    """One canned spec's ``(trace, metrics)`` at seed 0 (shared by the
    in-process pins and the worker checks, which compare against it)."""
    runner = ScenarioRunner(CANNED[name](), seed=0)
    metrics = runner.run(stack)
    return runner.trace, metrics


def canned_trace(name, stack):
    return canned_run(name, stack)[0]


def outcome_sha256(metrics):
    """SHA-256 of a run's metrics without its engine event count: what
    the run achieved (completions, deliveries, goodput, outages), not
    what it cost."""
    outcome = {key: value for key, value in metrics.items()
               if key != "events"}
    return hashlib.sha256(
        json.dumps(outcome, sort_keys=True).encode()).hexdigest()


#: name -> sha256 of the masked rina-stack trace at seed 0.  The masked
#: SHAs were taken on a tree whose full traces still matched the
#: pre-overhaul capture.  (ring-of-stars joined the registry after that
#: capture; its determinism is covered by the generic two-run checks
#: instead.)  Five were recaptured when EFCP came to resend each lost
#: PDU once per loss (corruption-storm, e4-multihoming, e5-mobility,
#: fault-storm, rolling-degradation): their link-delivery counts and
#: some echo delivery times moved, their ``GOLDEN_OUTCOMES`` did not.
#: All nine were recaptured when flooded copies came to be acked once per
#: port after a delay: only ``link.delivered`` (the acks that coalesced)
#: and the event count moved; every other trace line, delivery time and
#: ``GOLDEN_OUTCOMES`` pin held.
GOLDEN = {
    "e3-e2e": "a33e4fea71e7902a2da6fe3af9c16b54023f9cbd9e30a5e0cefed1a7e478706f",
    "e3-scoped": "91e5b7d45bbeb2ec5a504bc81091573753f062f200927fe704cb5839f0b2c5b7",
    "e4-multihoming": "75ac1ca734c6a47550c9b13f8cfc596243de6b9681469891d56609c36e522cae",
    "e5-mobility": "1657650de383efece83f1c16b96b38db4320d4f8894908e05bcaa04183d86ae5",
    "fault-storm": "aa07604111d6b91d1ad2facb574ee4e8517b90d32f65c3d21ddd812a94afc1df",
    # network-condition families, captured at their introduction (the
    # jitter/shaping/corruption/reorder models + injector windows):
    "flash-crowd":
        "0bf0ccee16352bde5d1df10598fcd2ec37f59c0f4fc526227b6c3f699889164d",
    "diurnal-load":
        "8ae85dd48f074f81e1d9a06a1a64b2fc67eb5e0b815493d3d69852b637940ea7",
    "rolling-degradation":
        "4f15d52a43b5609845fdefa69ba6a7fadc2f0bd9ed228b19afb297a010ac17a7",
    "corruption-storm":
        "bfba5179b61e90dce7385da0d05f6b684b68334303cb8f5f0a19d4d75dffd193",
}


#: shard index -> sha256 of that shard's masked trace for the canned
#: 2-region split (E6 plant at 2x3, all-nodes-announce flood, seed 0);
#: the full traces were captured when the async-grants protocol landed.
#: (The previous captures' final
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
    0: "12725736feb49140a943f9fa7eef36fd787391f883531106eec9f80ae6043cbc",
    1: "f624f57dec3660abb2348f1744cdb0720d26cc99e983b44f8bb289ed9c59a5f3",
}


#: name -> sha256 of the masked ip-stack trace at seed 0; the full
#: traces were first captured while the IP baseline still computed its
#: routes with a third-party graph library.
#: The in-repo breadth-first search that replaced it must reproduce
#: every route, tie-breaks included.
GOLDEN_IP = {
    "corruption-storm":
        "0ad090e4eb554dc41e8c442a146e4ed78f47cbd338b7747733228518b482b51a",
    "diurnal-load":
        "d3136d299f9ffc5989207aca1f89369a18890db91f01316ed8b459bafb4b354d",
    "e3-e2e": "8df6bc616b65d73ec1cee353726e03cbfeb863cf821e2a2b1ffe6aab705f8d43",
    "e3-scoped":
        "d7a119d79ba7f35eebe8908683de59a0083a33715d168d2e3d56d8b7d2c861af",
    "e4-multihoming":
        "d135b0bb4a4605406e80f5f2f400b05227608d1fcd5b3ebfa4a8f83f5c1cca5c",
    "e5-mobility":
        "d772a3ad6d832f5140b82807b7c62211f13618836651a385e25a16e03cc8ad1f",
    "fault-storm":
        "ab5d831553f473dfae3b5de449011384d56707e99d96f50c364ae25bff2533c4",
    "flash-crowd":
        "a3b7b0380157777fda85e9e1a250d58c395b5d9a531348121efb3f5814c670fa",
    "ring-of-stars":
        "a48a70ad194867e7e293ca7afe252ba978b3be5725d5dd2fbe28f94741e5774b",
    "rolling-degradation":
        "4f41a660e8a68215e030449616bf9746d37fc622d92d07580d27a40a20530238",
}

#: seed -> the sha256 of the masked ``data_clean_ip`` trace: the
#: perf/child.py job (its spec, its seed), captured with the split.
GOLDEN_DATA_CLEAN_IP = {
    0: "974056d231f351c0d0217375f92c36709885e8dcba0ef9e53788f0bd7f36b6c9",
    1: "ee29135f1e6ad28426925fd248b6636f54beaaedb1c9434a11cb7c26b5e22f40",
}

#: The engine event count of each pinned trace above, exact.
GOLDEN_EVENTS = {
    "corruption-storm": 4_609, "diurnal-load": 5_778, "e3-e2e": 851,
    "e3-scoped": 1_547, "e4-multihoming": 1_091, "e5-mobility": 5_902,
    "fault-storm": 5_418, "flash-crowd": 3_905,
    "rolling-degradation": 6_857,
}
GOLDEN_IP_EVENTS = {
    "corruption-storm": 1_401, "diurnal-load": 2_653, "e3-e2e": 246,
    "e3-scoped": 246, "e4-multihoming": 164, "e5-mobility": 728,
    "fault-storm": 1_177, "flash-crowd": 1_501, "ring-of-stars": 1_299,
    "rolling-degradation": 2_195,
}
GOLDEN_SHARDS_EVENTS = {0: 45, 1: 36}

#: name -> :func:`outcome_sha256` of the rina-stack metrics at seed 0,
#: every canned spec.  A change to how EFCP recovers may move a trace
#: (its timing, its event count) and must still leave this pin alone:
#: the same transfers complete, the same echoes and stream messages
#: arrive, the same outages are measured.
GOLDEN_OUTCOMES = {
    "corruption-storm":
        "49fc27fbb26a8c4987cf2135aacabe9808af091b68f760b13307682b9f3ed0e8",
    "diurnal-load":
        "10e19ab18c3a82ef9bae924ca17ac13789b713ee1e61f870ec5cd1ae06e47a81",
    "e3-e2e":
        "ec6c301d2b8effacb7915b02efda693f6a03be7d5b657f3918f27ab15b6c1157",
    "e3-scoped":
        "38e6f737703c6b8c80457a5c74dc6cda99007f39003dc05ec8359bbd0d38c34e",
    "e4-multihoming":
        "597b1e9c869f17b1a52aacf6ab649fbe7e78b0279555d5ce2ed5b27547b471c9",
    "e5-mobility":
        "dc45b4636f147295d94e5285105ca757fcdc617ede4fa60cd76251c06da5ad65",
    "fault-storm":
        "35a76068ccc5f6232a1d7bd3dbbc9e3baa07d969d5133fc093bf1693985ce393",
    "flash-crowd":
        "b5a9887d71ba338872f78188fdd439b2fba89c041d2687dd43441fdb88103b9d",
    "ring-of-stars":
        "f4138433ac3cb25d8fd233e097325021327f91f53ad6f1e8779324b799f1801b",
    "rolling-degradation":
        "fb8094c9fb8cfd44e4dc6e15499b0e05839cca4bee4a62c821fccea776183b1b",
}
GOLDEN_DATA_CLEAN_IP_EVENTS = {0: 68_523, 1: 68_543}


@functools.lru_cache(maxsize=None)
def sharded_traces():
    """shard index -> trace of the canned 2-region flood split."""
    from repro.experiments.e6_scalability import (build_flood_spec,
                                                  flood_assignment)
    from repro.shard import RegionPlan, all_nodes_announce, run_sharded
    spec = build_flood_spec(2, 3)
    plan = RegionPlan(spec, flood_assignment(2, 3, 2))
    result = run_sharded(plan, all_nodes_announce(spec.nodes), seed=0,
                         mode="inline")
    return {s["shard"]: text for s, text in zip(result.shards,
                                                 result.traces)}


def test_sharded_traces_match_pinned_fingerprints():
    traces = sharded_traces()
    assert {shard: masked_sha256(text) for shard, text in traces.items()} \
        == GOLDEN_SHARDS, ("per-shard trace diverged from the capture — a "
                           "change leaked into the shard protocol's "
                           "observable behavior")
    assert {shard: events_in(text) for shard, text in traces.items()} == \
        GOLDEN_SHARDS_EVENTS


def test_sharded_fingerprints_reproduce_inside_pool_workers():
    """Per-shard traces produced by a sharded run *inside a pool worker*
    (spawn start method, coordinator in its in-process fallback) are
    byte-identical to the in-process run pinned above — the shard
    analogue of the scenario-trace worker check below."""
    from repro.sweeps import Job, SweepRunner
    jobs = [Job("repro.experiments.e6_scalability:shard_trace_digests",
                kwargs={"regions": 2, "hosts_per_region": 3, "shards": 2,
                        "seed": 0},
                group="golden-shard", label="canned 2-region split")] * 2
    rows = SweepRunner(workers=2, start_method="spawn").run(jobs)
    assert {row["shard"]: row["sha256"] for row in rows} == {
        shard: hashlib.sha256(text.encode()).hexdigest()
        for shard, text in sharded_traces().items()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canned_trace_matches_pre_overhaul_fingerprint(name):
    text = canned_trace(name, "rina")
    assert masked_sha256(text) == GOLDEN[name], (
        f"{name}: trace diverged from the pre-overhaul capture — an "
        f"optimization leaked into observable behavior")
    assert events_in(text) == GOLDEN_EVENTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTCOMES))
def test_canned_outcome_matches_fingerprint(name):
    assert outcome_sha256(canned_run(name, "rina")[1]) == \
        GOLDEN_OUTCOMES[name], (
            f"{name}: what the run achieved changed, not only its cost")


@pytest.mark.parametrize("name", sorted(GOLDEN_IP))
def test_canned_ip_trace_matches_fingerprint(name):
    text = canned_trace(name, "ip")
    assert masked_sha256(text) == GOLDEN_IP[name], (
        f"{name}: ip-stack trace diverged from the capture — the IP "
        f"baseline's routes (or their tie-breaks) changed")
    assert events_in(text) == GOLDEN_IP_EVENTS[name]


@pytest.mark.parametrize("seed", sorted(GOLDEN_DATA_CLEAN_IP))
def test_benchmark_data_clean_ip_digest_matches_fingerprint(seed):
    child = _perf_child()
    runner = ScenarioRunner(child._scenario(False, seed), seed)
    metrics = runner.run("ip")
    assert child._scenario_ops(metrics, False) == (503, 0)
    assert masked_sha256(runner.trace) == GOLDEN_DATA_CLEAN_IP[seed]
    assert events_in(runner.trace) == GOLDEN_DATA_CLEAN_IP_EVENTS[seed]


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
    assert set(GOLDEN_OUTCOMES) == set(CANNED)
    assert set(GOLDEN_EVENTS) == set(GOLDEN)
    assert set(GOLDEN_IP_EVENTS) == set(GOLDEN_IP)


def test_golden_fingerprints_reproduce_inside_pool_workers():
    """Traces produced in a worker process are byte-identical to the
    pinned in-process traces.

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
        expected = canned_trace(row["name"], "rina").encode()
        assert row["sha256"] == hashlib.sha256(expected).hexdigest(), (
            f"{row['name']}: worker-process trace diverged from the pinned "
            f"in-process trace — fork/spawn-dependent state leaked "
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
    assert {row["name"]: row["sha256"] for row in rows} == {
        name: hashlib.sha256(canned_trace(name, "ip").encode()).hexdigest()
        for name in GOLDEN_IP}
