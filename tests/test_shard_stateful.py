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
#: the codec itself.
GOLDEN_STATEFUL_NODE_STATS = \
    "dfe1ab44ecdba485ff4ec76dd3147fde154149da922bf90046816f7f924b32ef"
GOLDEN_STATEFUL_ROWS = \
    "d33d38b2df3eed4be4cde09506512a8d4146fdee6dd5a27a6e2cb1e1ff931bb0"
GOLDEN_STATEFUL_SHARDS = {
    0: "3ed421235312a4f1dec4369871f97c58c11d84293f9a8b82c7b69bf3db811021",
    1: "0e6d6d56400ddddb488dddb897d689b32f16152863f420317fc166889904753b",
}
GOLDEN_STATEFUL_SHARDS_EVENTS = {0: 270, 1: 96}


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
        serial = run_stateful_scale(3, 2, shards=1, seed=1)
        sharded = run_stateful_scale(3, 2, shards=2, seed=1)
        for key in ("systems", "enrolled", "table_rows", "lsas_received",
                    "rib_sha256", "events"):
            assert sharded[key] == serial[key], key
        assert serial["shards"] == 1 and sharded["shards"] == 2
        assert sharded["frames_relayed"] > 0


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
        assert cut.frames_relayed == 636
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
