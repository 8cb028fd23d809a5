"""Stateful control-plane sharding: the acceptance contract of the
wire-codec refactor.

The headline claim under test: the flat configuration's *control
plane* — enrollment handshakes, RIEP exchange, LSA flooding, routing,
keepalives — run region-sharded across engine (and process) boundaries
produces **bit-identical** results to the unsharded build: the same
enrollment completion floats, the same assigned addresses, the same
routing tables and LSDB contents (pinned as per-member RIB SHA-256s).
Every frame that crosses a cut does so as ``repro.core.codec`` bytes —
no live object references ever sit in a ``BoundaryFrame``.
"""

import functools
import hashlib
import json

from test_trace_golden import events_in, masked_sha256

from repro.core import codec
from repro.experiments.e6_scalability import (build_flood_spec,
                                              build_stateful_workload,
                                              flood_assignment,
                                              run_stateful_scale)
from repro.shard import (RegionPlan, ShardEngine, all_nodes_announce,
                         run_sharded, run_unsharded_stateful)

#: Golden fingerprints of the canned stateful case (E6 plant at 3x2,
#: seed 0): the combined node-stats rendering of the unsharded build,
#: and the per-shard traces of its 2-way split.  Node-stats and rows
#: captured at the wire codec's introduction (PR 5); the per-shard
#: traces were recaptured when the async-grants protocol landed,
#: because their final ``clock=`` line now renders the protocol-
#: invariant ``Engine.last_event_time`` instead of the parked grant
#: horizon (every event, counter, and stat line is unchanged).  The
#: shard SHAs cover the trace with its event count masked, and the
#: counts are pinned apart (see tests/test_trace_golden.py).  A
#: mismatch means a change leaked into the control plane's observable
#: behavior — enrollment timing, address assignment, LSA contents, or
#: the codec itself.  The shard traces were recaptured once more when
#: flooded copies came to be acked once per port after a delay: their
#: ``link.delivered`` and event counts moved (270 / 96 before), the
#: node-stats and rows did not.  The event counts fell again, 258 / 96
#: -> 251 / 94, when FIFO RMT ports stopped pacing (no ``rmt.serve``);
#: the masked SHAs held.
GOLDEN_STATEFUL_NODE_STATS = \
    "dfe1ab44ecdba485ff4ec76dd3147fde154149da922bf90046816f7f924b32ef"
GOLDEN_STATEFUL_ROWS = \
    "d33d38b2df3eed4be4cde09506512a8d4146fdee6dd5a27a6e2cb1e1ff931bb0"
GOLDEN_STATEFUL_SHARDS = {
    0: "8a01620e4b0f8749dec67bb38dd71930f52fcc66f50438126d7037975a618d33",
    1: "f857ec9144a95afe1e02658996e8ebe7acca7e3c206188e6d1624849055d034e",
}
GOLDEN_STATEFUL_SHARDS_EVENTS = {0: 251, 1: 94}

#: The round rule's deterministic counts on the dense and the sparse
#: 10x3 plant (10 regions, 10 shards, seed 1, inline mode), keyed by
#: ``sparse``.  Every field is scheduling-independent and identical on
#: every machine: a mismatch means grant computation, relay order or
#: workload construction changed, which shows here before it shows as
#: a slower run.  ``events`` moved when a clean link hop became one
#: event (11,806 -> 4,478 and 12,394 -> 4,934).  Everything but the
#: plant's outcome (``enrolled``, ``table_rows``, ``lsas_received``,
#: ``rib_sha256``) moved again when flooded copies came to be acked once
#: per port after a delay: fewer frames cross the cuts (1,374 -> 874 and
#: 1,386 -> 1,080), and the ack flushes add instants, so rounds rose
#: (340 -> 387, 467 -> 566).  On the sparse plant, where few copies
#: share a flush, dispatched events rose 4,934 -> 5,241: 860 flushes and
#: 227 queue-head fires replace 1,720 invoke timeouts that were armed,
#: cancelled and so never dispatched (scheduling calls 6,695 -> 5,362).
#: Only ``events`` moved when FIFO RMT ports stopped pacing, by the
#: ``rmt.serve`` events that went: 3,558 -> 3,518 and 5,241 -> 5,201.
REFERENCE_10x3 = {
    False: {"config": "flat-stateful", "rounds": 387, "grants": 387,
            "region_steps": 1529, "frames_relayed": 874,
            "relay_batches": 739, "events": 3518, "enrolled": 41,
            "table_rows": 1640, "lsas_received": 1640,
            "rib_sha256": "4b8e61727f72a1f0"},
    True: {"config": "flat-stateful-sparse", "rounds": 566, "grants": 566,
           "region_steps": 2098, "frames_relayed": 1080,
           "relay_batches": 790, "events": 5201, "enrolled": 41,
           "table_rows": 1640, "lsas_received": 1640,
           "rib_sha256": "4b8e61727f72a1f0"},
}


def canned_stateful(regions=3, hosts=2, shards=2):
    spec = build_flood_spec(regions, hosts)
    workload = build_stateful_workload(regions, hosts)
    plan = RegionPlan(spec, flood_assignment(regions, hosts, shards))
    return spec, plan, workload


@functools.lru_cache(maxsize=None)
def canned_stateful_traces():
    """shard index -> trace of the canned stateful 2-way split."""
    _spec, plan, workload = canned_stateful()
    result = run_sharded(plan, workload, seed=0, mode="inline",
                         until=workload["until"])
    return {s["shard"]: text for s, text in zip(result.shards,
                                                 result.traces)}


def digest(rows):
    return hashlib.sha256(
        "\n".join(repr(row) for row in rows).encode()).hexdigest()


# ----------------------------------------------------------------------
# Equivalence: the acceptance-criteria contract
# ----------------------------------------------------------------------
class TestStatefulEquivalence:
    def test_two_shard_split_matches_unsharded_build_exactly(self):
        spec, plan, workload = canned_stateful()
        reference = run_unsharded_stateful(spec, workload, seed=0)
        sharded = run_sharded(plan, workload, seed=0, mode="inline",
                              until=workload["until"])
        # everyone enrolled, and the *whole* control-plane outcome —
        # enrollment floats, addresses, tables, LSDBs — is bit-identical
        assert reference["enrolled"] == len(spec.nodes)
        assert sharded.rows == reference["rows"]
        assert sharded.node_stats == reference["node_stats"]
        assert sharded.events == reference["events"]
        assert sharded.frames_relayed > 0
        # a member's table covers the whole flat DIF (routing converged)
        assert all(row["table_size"] == len(spec.nodes) - 1
                   for row in sharded.node_stats)

    def test_unsharded_build_matches_golden_fingerprints(self):
        spec, _plan, workload = canned_stateful()
        reference = run_unsharded_stateful(spec, workload, seed=0)
        assert digest(reference["node_stats"]) == GOLDEN_STATEFUL_NODE_STATS
        assert digest(reference["rows"]) == GOLDEN_STATEFUL_ROWS

    def test_sharded_traces_match_golden_fingerprints(self):
        traces = canned_stateful_traces()
        assert {shard: masked_sha256(text)
                for shard, text in traces.items()} == GOLDEN_STATEFUL_SHARDS
        assert {shard: events_in(text) for shard, text in traces.items()} \
            == GOLDEN_STATEFUL_SHARDS_EVENTS

    def test_process_mode_matches_inline_mode(self):
        _spec, plan, workload = canned_stateful()
        inline = run_sharded(plan, workload, seed=0, mode="inline",
                             until=workload["until"])
        process = run_sharded(plan, workload, seed=0, mode="process",
                              until=workload["until"])
        assert process.rows == inline.rows
        assert process.node_stats == inline.node_stats
        assert process.traces == inline.traces
        assert process.rounds == inline.rounds

    def test_three_way_split_keeps_the_rib(self):
        spec, _plan2, workload = canned_stateful()
        plan3 = RegionPlan(spec, flood_assignment(3, 2, 3))
        reference = run_unsharded_stateful(spec, workload, seed=0)
        sharded = run_sharded(plan3, workload, seed=0, mode="inline",
                              until=workload["until"])
        assert len(sharded.shards) == 3
        assert sharded.rows == reference["rows"]
        assert sharded.node_stats == reference["node_stats"]

    def test_stateful_scale_row_invariant_across_shard_counts(self):
        # the 3x2 plant at 2 shards, then the 10x3 plant at 2, 4 and 10
        for regions, hosts, counts in ((3, 2, (2,)), (10, 3, (2, 4, 10))):
            serial = run_stateful_scale(regions, hosts, shards=1, seed=1)
            assert serial["shards"] == 1
            assert serial["enrolled"] == serial["systems"]
            for count in counts:
                sharded = run_stateful_scale(regions, hosts, shards=count,
                                             seed=1)
                for key in ("systems", "enrolled", "table_rows",
                            "lsas_received", "rib_sha256", "events"):
                    assert sharded[key] == serial[key], key
                assert sharded["shards"] == count
                assert sharded["frames_relayed"] > 0
                # idle regions sit rounds out
                assert (sharded["region_steps"]
                        < sharded["rounds"] * sharded["shards"])

    def test_round_counts_match_reference(self):
        for sparse, expected in REFERENCE_10x3.items():
            row = run_stateful_scale(10, 3, shards=10, seed=1,
                                     mode="inline", sparse=sparse)
            assert row["shards"] == 10
            assert {key: row[key] for key in expected} == expected
            assert json.loads(json.dumps(row)) == row


# ----------------------------------------------------------------------
# The wire-data invariant at the cut
# ----------------------------------------------------------------------
class TestWireData:
    def test_boundary_frames_carry_no_live_objects(self):
        # drive both regions through hand-rolled lookahead rounds so
        # every frame can be inspected *before* injection: enrollment
        # allocs, RIEP handshakes, LSA floods, and keepalives all cross
        # as wire data, never as live objects
        from repro.core.pdu import ManagementPdu
        _spec, plan, workload = canned_stateful()
        shards = [ShardEngine(region, workload, seed=0)
                  for region in plan.regions]
        inboxes = [[] for _ in shards]
        seen_payloads = []
        for _round in range(4000):
            nexts = [s.next_event_time() for s in shards]
            activity = [t for t in nexts if t is not None]
            activity.extend(f[0] for inbox in inboxes for f in inbox)
            if not activity:
                break
            floor = min(activity)
            if floor > workload["until"] / 2:
                break
            for shard, inbox in zip(shards, inboxes):
                inbox.sort(key=lambda frame: frame[0])
                shard.inject(inbox)
            new_inboxes = [[] for _ in shards]
            for index, shard in enumerate(shards):
                lookahead = plan.regions[index].lookahead
                for frame in shard.run_to(floor + lookahead):
                    pair = plan.boundary_regions[frame[1]]
                    dest = pair[1] if pair[0] == index else pair[0]
                    new_inboxes[dest].append(frame)
                    seen_payloads.append(frame[2])
            inboxes = new_inboxes
        assert len(seen_payloads) > 0
        assert all(type(payload) is bytes for payload in seen_payloads)
        # and the traffic really is the control plane: shim frames
        # wrapping management PDUs crossed the cut
        decoded = [codec.decode(payload) for payload in seen_payloads]
        assert any(isinstance(frame, tuple) and len(frame) == 4
                   and isinstance(frame[2], ManagementPdu)
                   for frame in decoded)

    def test_flood_frames_carry_no_live_objects(self):
        # the PR-4 workload rides the same codec path now
        spec = build_flood_spec(2, 2)
        plan = RegionPlan(spec, flood_assignment(2, 2, 2))
        shard1 = ShardEngine(plan.regions[1], all_nodes_announce(spec.nodes),
                             seed=0)
        frames = shard1.run_to(None)
        assert len(frames) > 0
        assert all(type(payload) is bytes
                   for _t, _l, payload, _s in frames)

    def test_cutting_every_link_is_behavior_invisible(self):
        # the transparency proof, on the production path: with every
        # node its own region *every* link is a cut, so every frame of
        # the whole stateful build crosses as codec.encode'd wire data
        # (BoundaryHalf) — and the outcome is bit-identical to the
        # live-object build
        spec = build_flood_spec(3, 4)
        workload = build_stateful_workload(3, 4)
        plan = RegionPlan(spec, {node: region
                                 for region, node in enumerate(spec.nodes)})
        assert len(plan.regions) == len(spec.nodes) == 16
        assert all(not region.links for region in plan.regions)
        assert len(plan.boundary_regions) == len(spec.links) == 15
        reference = run_unsharded_stateful(spec, workload, seed=0)
        cut = run_sharded(plan, workload, seed=0, mode="inline",
                          until=workload["until"])
        assert cut.frames_relayed == 450
        assert cut.rows == reference["rows"]
        assert cut.node_stats == reference["node_stats"]
        assert cut.events == reference["events"]


# ----------------------------------------------------------------------
# Worker-process golden checks (run under spawn in CI stateful-shard-smoke)
# ----------------------------------------------------------------------
def test_stateful_fingerprints_reproduce_inside_pool_workers():
    """Per-shard stateful traces produced inside a spawn-ed pool worker
    (coordinator in its in-process fallback) are byte-identical to the
    in-process traces pinned above — proof that the whole control plane,
    codec included, rebuilds from pure data in a fresh interpreter."""
    from repro.sweeps import Job, SweepRunner
    jobs = [Job("repro.experiments.e6_scalability:stateful_trace_digests",
                kwargs={"regions": 3, "hosts_per_region": 2, "shards": 2,
                        "seed": 0},
                group="golden-stateful", label="canned stateful split")] * 2
    rows = SweepRunner(workers=2, start_method="spawn").run(jobs)
    assert {row["shard"]: row["sha256"] for row in rows} == {
        shard: hashlib.sha256(text.encode()).hexdigest()
        for shard, text in canned_stateful_traces().items()}
