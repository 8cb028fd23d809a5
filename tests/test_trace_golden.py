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
#: ``GOLDEN_OUTCOMES`` pin held.  Six were recaptured when each direction
#: of a lossy or conditioned link came to draw from its own streams
#: (corruption-storm, diurnal-load, e3-e2e, fault-storm, flash-crowd,
#: rolling-degradation): their draws fell on other frames.  Two were
#: recaptured when a reliable EFCP receiver came to ack every second
#: in-order PDU while the sender has more queued (the transfer's ACKs that
#: coalesced): e3-e2e's ``link.delivered`` 427 -> 403, and nothing else;
#: e3-scoped's 676 -> 638, and with fewer frames on its lossy radio link
#: one loss draw now falls on a frame (``link.drop.loss=1``, a new line)
#: and two of the transfer's deliveries come 22 and 45 ns earlier.  Their
#: ``GOLDEN_OUTCOMES`` held, and so did every other spec's trace.
GOLDEN = {
    "e3-e2e": "502e3356a13735ff8bd6a4c2f2f1dc1e989bae4bb25c059c9fcc4f264afafa4b",
    "e3-scoped": "3a980204c281d54719fb21fb66f6aed9fb7b13a577d38c5d3bd750637c211089",
    "e4-multihoming": "75ac1ca734c6a47550c9b13f8cfc596243de6b9681469891d56609c36e522cae",
    "e5-mobility": "1657650de383efece83f1c16b96b38db4320d4f8894908e05bcaa04183d86ae5",
    "fault-storm": "2e7db3e35cbb5311db961fbdaf527d4d89eb999f8a81d7784af0c40f7ac3c99d",
    # network-condition families, captured at their introduction (the
    # jitter/shaping/corruption/reorder models + injector windows):
    "flash-crowd":
        "004cb57665f0931ca7c24740291523e5b09fd0d2e8c8ff271014eb210a58289f",
    "diurnal-load":
        "e44022301fa341c29563713aa2928834fe0fd04ec8998089371cb54f6b583374",
    "rolling-degradation":
        "0d7a4ac2514cd6602a919f6e09444ebd9c66cc7d1ceb3ee058041122c89880af",
    "corruption-storm":
        "5128664391f8acf98228f089be98e62a30cd6f7fa207102f50286ec01b5048fa",
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
#: every route, tie-breaks included.  Seven were recaptured when each
#: direction of a lossy or conditioned link came to draw from its own
#: streams (corruption-storm, diurnal-load, e3-e2e, e3-scoped,
#: fault-storm, flash-crowd, rolling-degradation).  corruption-storm was
#: recaptured again when a link came to decide a frame's fate at its
#: send: a frame still serializing when its first corruption window
#: closes was sent under it, so it now draws corruption (and is
#: corrupted), and one echo fewer arrives.
GOLDEN_IP = {
    "corruption-storm":
        "a8510569b2639c2c556d1d1351eb0cc5a965f061ce80e3a89fddcc18b91984a3",
    "diurnal-load":
        "59616755e3cede9f10d353ccfa94b9840b7f01fb3736155ad48128958e0a8bed",
    "e3-e2e": "91e539a730635f1cbf8039fdc67f9dcae73f4faafd076c57c8b747752c24f082",
    "e3-scoped":
        "3b3e82a0699573e461bbc5f13efa06b8772de672946903a97b9b0610dd345ba1",
    "e4-multihoming":
        "d135b0bb4a4605406e80f5f2f400b05227608d1fcd5b3ebfa4a8f83f5c1cca5c",
    "e5-mobility":
        "d772a3ad6d832f5140b82807b7c62211f13618836651a385e25a16e03cc8ad1f",
    "fault-storm":
        "8d4f9feff4dcdfde753167e77f262926a6b97189971d2b84a1ae37094bf2d2e5",
    "flash-crowd":
        "1cb31a5f20e67ebc90ed9af7ff6c2517ccec68162696c5e0cb7ef5e8270e1cf1",
    "ring-of-stars":
        "a48a70ad194867e7e293ca7afe252ba978b3be5725d5dd2fbe28f94741e5774b",
    "rolling-degradation":
        "88c1bd7b13563f6b679595b2d3a51460ff95b62f0f84239102df02e959800dbe",
}

#: seed -> the sha256 of the masked ``data_clean_ip`` trace: the
#: perf/child.py job (its spec, its seed), captured with the split.
GOLDEN_DATA_CLEAN_IP = {
    0: "974056d231f351c0d0217375f92c36709885e8dcba0ef9e53788f0bd7f36b6c9",
    1: "ee29135f1e6ad28426925fd248b6636f54beaaedb1c9434a11cb7c26b5e22f40",
}

#: The engine event count of each pinned trace above, exact.  A link
#: that decides a frame's fate at its send schedules no serialization-end
#: event, which is why every lossy or conditioned spec's count fell then.
#:
#: Every rina count fell again when a FIFO RMT port came to hand its PDUs
#: straight to the shim (no ``rmt.serve`` events) and a restarted
#: ``Timer`` came to keep its pending event (an ``efcp.retx`` restarted
#: per ACK fires early once and re-arms): corruption-storm 4,092 -> 3,610,
#: diurnal-load 5,082 -> 4,547, e3-e2e 639 -> 498, e3-scoped 1,085 -> 788,
#: e4-multihoming 1,091 -> 924, e5-mobility 5,902 -> 5,373, fault-storm
#: 5,239 -> 4,488, flash-crowd 3,397 -> 2,937, rolling-degradation 6,520
#: -> 5,655.  Two ip counts rose with the lazy ``tcp.rto``, by its early
#: fires: e3-e2e and e3-scoped 175 -> 178.  No masked SHA moved.  With
#: an ACK per two PDUs while more is queued: e3-e2e 498 -> 476 and
#: e3-scoped 788 -> 752 (their masked SHAs moved with ``link.delivered``,
#: see ``GOLDEN``); no other spec sends a PDU with more queued behind
#: it, so no other count moved.  Every rina count fell by its
#: ``routing.spf`` events when the SPF hold-down became a deadline read
#: at the next table query: corruption-storm 3,610 -> 3,595 (15),
#: diurnal-load 4,547 -> 4,541 (6), e3-e2e 476 -> 464 (12), e3-scoped
#: 752 -> 736 (16), e4-multihoming 924 -> 920 (4), e5-mobility 5,373 ->
#: 5,317 (56), fault-storm 4,488 -> 4,433 (55), flash-crowd 2,937 ->
#: 2,926 (11), rolling-degradation 5,655 -> 5,626 (29).  No masked SHA
#: moved: every query recomputed exactly where a fire had marked it to.
GOLDEN_EVENTS = {
    "corruption-storm": 3_595, "diurnal-load": 4_541, "e3-e2e": 464,
    "e3-scoped": 736, "e4-multihoming": 920, "e5-mobility": 5_317,
    "fault-storm": 4_433, "flash-crowd": 2_926,
    "rolling-degradation": 5_626,
}
GOLDEN_IP_EVENTS = {
    "corruption-storm": 1_220, "diurnal-load": 2_329, "e3-e2e": 178,
    "e3-scoped": 178, "e4-multihoming": 163, "e5-mobility": 728,
    "fault-storm": 1_161, "flash-crowd": 1_275, "ring-of-stars": 1_299,
    "rolling-degradation": 2_106,
}
GOLDEN_SHARDS_EVENTS = {0: 45, 1: 36}

#: name -> :func:`outcome_sha256` of the rina-stack metrics at seed 0,
#: every canned spec.  A change to how EFCP recovers may move a trace
#: (its timing, its event count) and must still leave this pin alone:
#: the same transfers complete, the same echoes and stream messages
#: arrive, the same outages are measured.
#:
#: A change to which frame a link's draws fall on may move it.  Four
#: moved when each direction of a lossy or conditioned link came to draw
#: from its own streams (an outage is the longest gap between echo or
#: stream deliveries, so it follows which frames are lost or delayed):
#: corruption-storm's three windows measure 0.323 -> 0.292 s;
#: diurnal-load's stream p95 delay is 7.85 -> 9.30 ms and its first three
#: windows 0.0549 -> 0.0555 s; flash-crowd's jitter storm 0.0564 ->
#: 0.0568 s; rolling-degradation's first window 0.351 -> 0.218 s and its
#: second 0.1538 -> 0.1529 s.
GOLDEN_OUTCOMES = {
    "corruption-storm":
        "09bba87aa02a83acc40eb02d1bf29d6e05ced0b6c2c8bcfb08372d2a468d500a",
    "diurnal-load":
        "862951e410e2aae40f1e73499a6760765cb0d453f0c0682adc14ded3b56c43ba",
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
        "31585913d811788c262a3b40bc7f1e0ca427ff66e5b380f3aed0da8b18c7194b",
    "ring-of-stars":
        "f4138433ac3cb25d8fd233e097325021327f91f53ad6f1e8779324b799f1801b",
    "rolling-degradation":
        "f87121aa2bc87ed7d85ace5714234cabb6ba4f8cd977a78c9632cba470602ba4",
}
GOLDEN_DATA_CLEAN_IP_EVENTS = {0: 68_523, 1: 68_543}

#: (workload, seed) -> the benchmark's ``sim_digest`` of that run, as
#: perf/child.py's checker computes it, for the workloads whose links
#: are all clean: a change to how lossy or conditioned links decide a
#: frame's fate must leave them byte-identical.  ``control_flat`` and
#: ``flood`` build the same plant at every seed, so seed 1 repeats seed
#: 0's digest; ``shard_inline`` is ``shard_stateful``'s run with its
#: regions stepped in one process, and pins the converged RIB as well.
#:
#: Four moved when FIFO RMT ports stopped pacing and a restarted
#: ``Timer`` came to keep its pending event, through their engine event
#: counts only (the traces and rows with ``events`` left out are
#: byte-identical at seeds 0 and 1): control_flat 1764499f070d ->
#: ba0521db5bae (75,619 -> 75,379 events), data_clean seed 0
#: 629bdb2b29d6 -> b0a3aa8dc76d (97,323 -> 75,396) and seed 1
#: 0cf10948a79a -> 33fc81796fca (97,356 -> 75,416), shard_inline
#: e17d53f44051 -> e5ca35d154e8 (74,467 -> 74,257 events, and with them
#: the coordinator's costs: region_steps 2,509 -> 2,501 and relay_batches
#: 733 -> 731; grants, frames_relayed and the RIB held).
#:
#: data_clean moved again when a refused send came to wait on its flow's
#: WRITABLE notification instead of polling (the message flow's 78 retry
#: and the file sender's 76 poll events gone at seed 0), through its event
#: count only
#: (the traces are line-identical but for the metrics line's ``events``,
#: and both transfers complete at the same instants): seed 0
#: b0a3aa8dc76d -> 1104fd4bff8d (75,396 -> 75,242 events) and seed 1
#: 33fc81796fca -> 5d6f3cd7ed1d (75,416 -> 75,262).
#:
#: data_clean moved again when a reliable EFCP receiver came to ack every
#: second in-order PDU while the sender has more queued: seed 0
#: 1104fd4bff8d -> 10cb8725faa9 (75,242 -> 61,284 events) and seed 1
#: 5d6f3cd7ed1d -> a9fe24e50687 (75,262 -> 61,294).  The trace lines that
#: moved are ``link.delivered`` (70,167 -> 55,837 at seed 0: the rank-2
#: ACKs that coalesced), the metrics line's ``events``, and two of the
#: 500 echo deliveries, which come 6.6 and 26 us earlier with fewer ACKs
#: queued ahead of them; both transfers' delivery lines, the stream's and
#: every other metric are byte-identical at both seeds.
#:
#: control_flat, data_clean and shard_inline moved when the SPF hold-down
#: became a deadline read at the next table query, by their
#: ``routing.spf`` events: control_flat ba0521db5bae -> d12f58f5e155
#: (75,379 -> 67,622, the row's ``events`` column alone); data_clean
#: seed 0 10cb8725faa9 -> f1be2721ac26 (61,284 -> 61,266) and seed 1
#: a9fe24e50687 -> 20b3ffb63808 (61,294 -> 61,276), the metrics line's
#: ``events`` alone; shard_inline e5ca35d154e8 -> 9c7b2a1d0cfa (74,257
#: -> 62,992 events, and with them the coordinator's costs: rounds and
#: grants 1,435 -> 1,414, region_steps 2,501 -> 2,297; frames_relayed,
#: relay_batches and the RIB held).
GOLDEN_CLEAN_BENCHMARKS = {
    ("control_flat", 0):
        "d12f58f5e15539c99d2f11df00bd4925fc19f632d94ee49331ded897cc1bcee2",
    ("data_clean", 0):
        "f1be2721ac2625ba0230a0d7d5ef97a25ec12fd8f80bdb05f47421ebb7c0184b",
    ("data_clean", 1):
        "20b3ffb638085f3c08c0c5efa1aef50ec22bc068115f88ec19edfb79e791dd25",
    ("flood", 0):
        "83405805b78be3bd7da01946e0f92ae133b21326e155d69a46cad8aabb0cf099",
    ("shard_inline", 0):
        "9c7b2a1d0cfab449862f5438ccb8dc2c032a563f4bbbe20aa6fe3a11d8eb8137",
}
GOLDEN_CLEAN_RIB = {("shard_inline", 0): "2fcf70f0d1b8f2b7"}


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
    jobs = [Job("repro.experiments.e6_scalability:trace_digests",
                kwargs={"kind": "flood", "regions": 2, "hosts_per_region": 3, "shards": 2,
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


@pytest.mark.parametrize("workload, seed", sorted(GOLDEN_CLEAN_BENCHMARKS))
def test_benchmark_clean_digest_matches_fingerprint(workload, seed):
    call, check = _perf_child().prepare(workload, seed)
    result = check(call())
    assert result["failed"] == 0
    assert result["digest"] == GOLDEN_CLEAN_BENCHMARKS[workload, seed]
    assert result.get("rib_sha256") == GOLDEN_CLEAN_RIB.get((workload, seed))


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
