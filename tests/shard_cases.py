"""Shard-test plants that no ``repro`` command runs.

Imported by the shard tests, and by name (``"shard_cases:trace_digests"``)
as a sweep-job target: a ``spawn``-ed pool worker inherits the test
process's ``sys.path``, so it resolves this module as the tests do.
"""

from repro.experiments.e6_scalability import (build_flood_spec,
                                              build_stateful_workload,
                                              flood_assignment)
from repro.shard import RegionPlan, all_nodes_announce, run_sharded

#: The sparse-traffic stateful plant's knobs: hosts enroll six times
#: farther apart and keepalives tick four times slower than the E6
#: schedule's, so the plant spends most of its simulated time with
#: activity in only one or two regions at once.  This is the regime in
#: which idle regions must sit rounds out.  The values stay odd and
#: co-prime with the 1/2 ms hop delays, so the tie-freeness precondition
#: holds (see repro.shard.stateful).
SPARSE_HOST_SPACING = 0.0763
SPARSE_KEEPALIVE = 2.0113
SPARSE_SETTLE = 4.2007


def sparse_stateful_workload(regions, hosts_per_region):
    """The E6 stateful workload with the sparse schedule: same topology
    and causal structure, but at any simulated instant only a couple of
    regions have work inside the round's window."""
    return build_stateful_workload(
        regions, hosts_per_region, host_spacing=SPARSE_HOST_SPACING,
        settle=SPARSE_SETTLE,
        policies={"keepalive_interval": SPARSE_KEEPALIVE})


def trace_digests(kind, regions, hosts_per_region, shards, seed=0):
    """Rows of per-shard trace SHA-256s of the E6 plant cut into
    ``shards`` regions, running the every-node flood (``kind="flood"``)
    or the stateful enrollment schedule.  Job target of the golden
    checks that run inside pool workers, where the coordinator falls
    back to in-process rounds."""
    spec = build_flood_spec(regions, hosts_per_region)
    workload = (all_nodes_announce(spec.nodes) if kind == "flood"
                else build_stateful_workload(regions, hosts_per_region))
    plan = RegionPlan(spec, flood_assignment(regions, hosts_per_region,
                                             shards))
    result = run_sharded(plan, workload, seed=seed,
                         until=workload.get("until"), collect_rows=False)
    return [{"shard": s["shard"], "sha256": s["trace_sha256"]}
            for s in result.shards]
