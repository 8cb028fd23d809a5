"""E6 — §6.5: routing state and update scope, flat vs recursive (size sweep),
plus the scale tier (wall-clock and events/sec at up to 1,021 systems).

The stateful tier additionally emits ``benchmarks/BENCH_e6_scale.json``
(path overridable via ``REPRO_BENCH_JSON``): one schema'd document with
rounds, boundary steps, frames relayed, events/sec, wall-clock, and
peak memory per tier, so the perf trajectory is a diffable artifact
instead of scrollback.  Both bench artifacts live
in ``benchmarks/`` — the emitted document next to the committed
``BENCH_e6_scale_reference.json`` that pins the deterministic columns
of the same rows, diffed in CI by ``check_e6_scale_reference.py``.
"""

import json
import os

from repro.experiments.common import format_table
from repro.experiments.e6_scalability import (iter_flood_jobs, iter_jobs,
                                              iter_scale_jobs, run_scale)
from repro.sweeps import SweepRunner

#: v3: one round rule, so the ``comparisons`` block (per-channel vs
#: global-min step ratios) and the rows' ``protocol`` / ``transport``
#: columns are gone.  v2 added ``peak_mem_mb`` (process high-water RSS
#: at row completion) and moved the document into ``benchmarks/``.
BENCH_JSON_SCHEMA = "repro/bench-e6-scale/v3"


def emit_bench_json(rows):
    """Write the schema'd stateful-tier document (``rows`` are
    run_stateful_scale rows) into ``benchmarks/`` (or to
    ``REPRO_BENCH_JSON``)."""
    path = os.environ.get("REPRO_BENCH_JSON") or os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "BENCH_e6_scale.json")
    document = {"schema": BENCH_JSON_SCHEMA, "tiers": rows}
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return path


SIZES = [(3, 4), (4, 8), (5, 12)]   # (regions, hosts/region)

#: wall-clock of the seed (pre queue/SPF overhaul) on the reference box:
#: the full flat 5x10 config (build + state stats + flap scope) took
#: 0.582 s (28,211 events, 48,500 events/s).  The overhaul's acceptance
#: was >= 3x its events/sec; the floor is kept in seconds because an
#: event is no longer a fixed unit of work (a clean hop dispatches one
#: event where it dispatched three, 10,658 events for the same row).
SEED_FLAT_5x10_WALL_S = 0.582


def test_e6_scale_tier(benchmark, table_sink):
    """Scale rows: record wall-clock and events/sec so hot-path
    regressions surface in the bench JSON instead of silently rotting.
    Set REPRO_E6_SCALE=large (or xlarge) to include the 1,021-system
    tier; the 100k-system xlarge tier itself is flood-only (the full
    control plane does not build at that scale) and lives in
    ``test_e6_sharded_flood_tier``.

    Deliberately *not* on the shared ``sweep`` fixture: these rows ARE
    wall-clock measurements, and concurrent cold-interpreter workers
    contending for CPU would deflate events_per_s — the serial runner
    keeps the recorded numbers meaning single-process throughput even
    when REPRO_JOBS parallelizes the rest of the bench suite."""
    run_scale("flat", 5, 10)   # warm interpreter caches off the clock
    tiers = ["small", "medium"]
    if os.environ.get("REPRO_E6_SCALE") in ("large", "xlarge"):
        tiers.append("large")
    jobs = iter_scale_jobs(tiers)
    rows = benchmark.pedantic(lambda: SweepRunner(workers=1).run(jobs),
                              rounds=1, iterations=1)
    table_sink("E6-scale (§6.5): build wall-clock and events/sec",
               format_table(rows))
    for row in rows:
        assert row["events_per_s"] > 0
        assert row["total_state"] > 0
    flat = rows[0]
    # the headline hot-path budget: the flat 5x10 config must stay well
    # clear of the seed's measured time (3x achieved, 2x floor).
    # The floor is an absolute number from the reference box, so it is
    # opt-in — set REPRO_E6_STRICT=1 on hardware at least as fast (the
    # CI gate for arbitrary runners is the wall-clock-capped smoke job)
    if os.environ.get("REPRO_E6_STRICT"):
        assert flat["wall_s"] <= SEED_FLAT_5x10_WALL_S / 2, flat
    # the §6.5 property at scale: a flat member carries the whole graph,
    # a recursive member's state is bounded by its region, not the network
    assert flat["mean_table"] == flat["systems"] - 1
    for row in rows[1:]:
        assert row["max_table"] < row["systems"] / 3, row


def test_e6_sharded_flood_tier(benchmark, table_sink):
    """The sharded row: the flat configuration's flooding fan-out split
    over per-region engines exchanging boundary frames.

    Serial runner for the same reason as the scale tier (the rows are
    wall-clock measurements); the sharded run's own coordinator decides
    between in-process rounds and per-region worker processes.  The
    deliveries/events columns are deterministic and must be invariant
    across shard counts — that is the conservative-lookahead contract
    (the bit-exact 2-region equivalence is pinned in
    ``tests/test_shard.py``).
    """
    tiers = ["small", "medium"]
    scale = os.environ.get("REPRO_E6_SCALE")
    if scale in ("large", "xlarge"):
        tiers.append("large")
    if scale == "xlarge":
        # the 100k-system flood tier (sim/ + shard/flood.py, no core/):
        # sparse origins (the every-node storm is quadratic and
        # infeasible at this size)
        tiers.append("xlarge")
    jobs = iter_flood_jobs(tiers, shards=2)
    rows = benchmark.pedantic(lambda: SweepRunner(workers=1).run(jobs),
                              rounds=1, iterations=1)
    table_sink("E6-shard (§6.5): flooding fan-out, unsharded vs sharded",
               format_table(rows))
    for unsharded, sharded in zip(rows[::2], rows[1::2]):
        assert unsharded["shards"] == 1 and sharded["shards"] == 2
        assert sharded["deliveries"] == unsharded["deliveries"]
        assert sharded["events"] == unsharded["events"]
        assert sharded["frames_relayed"] > 0
        # every system hears every announcing origin (origins == n on
        # the storm tiers, sparse on xlarge)
        n = unsharded["systems"]
        assert unsharded["deliveries"] == unsharded["origins"] * (n - 1)


def test_e6_stateful_shard_tier(benchmark, table_sink):
    """The stateful sharded row: the flat configuration's *control
    plane* — enrollment, RIEP exchange, LSA flooding, keepalives —
    unsharded vs 2/4/10-way region shards, every boundary frame
    crossing as codec-encoded wire data.

    Serial runner for the same reason as the other tiers (the rows are
    wall-clock measurements).  The deterministic columns — enrolled
    members, table rows, LSAs received, and the combined RIB
    fingerprint — must be bit-invariant across shard counts; the
    2-shard split is additionally pinned row-identical (enrollment
    floats included) in ``tests/test_shard_stateful.py``.
    """
    from repro.sweeps import Job
    jobs = [Job("repro.experiments.e6_scalability:run_stateful_scale",
                kwargs={"regions": 10, "hosts_per_region": 3,
                        "shards": shards, "seed": 1},
                group="e6-stateful", label=f"e6-stateful 10x3 x{shards}")
            for shards in (1, 2, 4, 10)]
    # the sparse-traffic twin of the 10-shard row: where idle regions
    # sitting rounds out shows in region_steps
    jobs.append(Job("repro.experiments.e6_scalability:run_stateful_scale",
                    kwargs={"regions": 10, "hosts_per_region": 3,
                            "shards": 10, "seed": 1, "sparse": True},
                    group="e6-stateful",
                    label="e6-stateful 10x3-sparse x10"))
    rows = benchmark.pedantic(lambda: SweepRunner(workers=1).run(jobs),
                              rounds=1, iterations=1)
    table_sink("E6-stateful (§6.5): control plane, unsharded vs sharded",
               format_table(rows))
    unsharded = rows[0]
    assert unsharded["shards"] == 1
    assert unsharded["enrolled"] == unsharded["systems"]
    for row in rows[1:4]:
        assert row["shards"] > 1
        assert row["frames_relayed"] > 0
        for key in ("enrolled", "table_rows", "lsas_received",
                    "rib_sha256", "events", "systems"):
            assert row[key] == unsharded[key], key
    path = emit_bench_json(rows)
    with open(path) as handle:
        document = json.load(handle)
    assert document["schema"] == BENCH_JSON_SCHEMA
    for row in document["tiers"][1:]:
        # idle regions sit rounds out (pinned harder, with the exact
        # counts, in tests/test_shard_grants.py and the CI reference)
        assert row["region_steps"] < row["rounds"] * row["shards"], row


def test_e6_state_and_scope(benchmark, table_sink, sweep):
    rows = benchmark.pedantic(lambda: sweep.run(iter_jobs(sizes=SIZES)),
                              rounds=1, iterations=1)
    table_sink("E6 (§6.5): per-system routing state and failure-update scope",
               format_table(rows))
    flat = [r for r in rows if r["config"] == "flat"]
    recursive = [r for r in rows if r["config"] == "recursive"]
    ip_rip = [r for r in rows if r["config"] == "ip+rip"]
    # the real-protocol IP baseline behaves like the flat DIF: full-size
    # tables, whole-network flap footprint, plus steady periodic chatter
    for row in ip_rip:
        assert row["flap_update_scope"] == row["systems"]
        assert row["updates_per_s"] > 0
    for f, r in zip(flat, recursive):
        assert r["total_state"] < f["total_state"]
        assert r["flap_update_scope"] < f["flap_update_scope"]
        assert f["flap_update_scope"] == f["systems"]
    # flat total state grows ~quadratically; recursive stays near-linear
    flat_growth = flat[-1]["total_state"] / flat[0]["total_state"]
    recursive_growth = (recursive[-1]["total_state"]
                        / recursive[0]["total_state"])
    assert flat_growth > recursive_growth
