"""E6 — §6.5: "this repeating structure scales indefinitely".

The claim: because each DIF has private internal addresses and management
policies that bound its membership, per-system routing state and the scope
of routing updates stay bounded as the internet grows — versus one global
layer where both grow with the whole network.

Setup: ``k`` regions of ``m`` systems each (a star around a regional
border router), the ``k`` borders joined by one core node: a star of
stars.  Two configurations over identical physical plants:

* **flat** — one DIF containing every system: table size per member is
  O(n); a single link flap floods LSAs to all n members.
* **recursive** — one DIF per region (m+1 members), one backbone DIF
  (k+1 members), and a host-to-host DIF only for the systems that
  actually talk end to end (Fig 3's "3rd-level host-to-host DIF").  A
  host's state is O(m); a border's is O(m + k); a link flap floods only
  within its region.

Measured per configuration: mean/max routing-table entries per system,
total RIB-ish state, and the number of systems that receive at least one
routing update when one access link flaps.
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from ..core import (Dif, DifPolicies, Orchestrator, add_shims,
                    build_dif_over, make_systems, shim_name_for)
from ..sim.network import Network

# the job lists import the sweep runner (and multiprocessing) when they
# are built: a process that only runs a tier never needs it
if TYPE_CHECKING:
    from ..sweeps import Job

#: The scale tier: named (regions, hosts/region) sizes the hot-path work
#: opened up.  ``large`` is 1,021 systems — the "scales indefinitely"
#: claim exercised at three orders of magnitude.
SCALE_SIZES: Dict[str, Tuple[int, int]] = {
    "small": (5, 10),      # 56 systems
    "medium": (10, 20),    # 211 systems
    "large": (20, 50),     # 1,021 systems
}

#: Flood-only tier sizes: the frame-level flooding data path carries no
#: per-member control plane, so it reaches plants the full stack cannot.
#: ``xlarge`` is the engine-core acceptance tier — 100,001 systems
#: (500 regions x 199 hosts, plus borders and the core), built and
#: flooded in one process.
FLOOD_SIZES: Dict[str, Tuple[int, int]] = dict(SCALE_SIZES,
                                               xlarge=(500, 199))

#: Announcement origins per flood tier.  ``None`` (the default) means
#: every node announces — the initial-LSA storm, quadratic in plant
#: size and infeasible at 100k systems (10^10 deliveries).  The xlarge
#: tier instead floods from a sparse, evenly spread set of origins: the
#: steady-state re-origination trickle of a built plant, linear per
#: origin, still touching every link and every boundary.
FLOOD_TIER_ORIGINS: Dict[str, Optional[int]] = {"xlarge": 8}


def _peak_mem_mb() -> Optional[float]:
    """Process peak-RSS high-water mark in MB, or ``None`` where the
    platform cannot report one.  Monotonic over a process lifetime — a
    scale row records the high-water mark *as of that row*, which for
    the ascending tier order means the largest plant's row carries its
    own peak.

    ``resource`` is imported lazily: the module does not exist off
    POSIX, and a top-level import would take the whole experiments
    package down with it.  ``ru_maxrss`` is kilobytes on Linux but
    *bytes* on macOS, so the divisor follows ``sys.platform``.
    """
    try:
        import resource
    except ImportError:
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return round(rss / divisor, 1)


def _speed_columns(events: int, wall: float) -> Dict[str, Any]:
    """The wall-clock tail every performance row ends with."""
    return {
        "wall_s": round(wall, 2),
        "events": events,
        "events_per_s": int(events / wall) if wall > 0 else 0,
        "peak_mem_mb": _peak_mem_mb(),
    }


def _region_names(region: int, hosts: int) -> Tuple[str, List[str]]:
    border = f"border{region}"
    return border, [f"h{region}_{i}" for i in range(hosts)]


def _plant(regions: int, hosts_per_region: int
           ) -> Iterator[Tuple[str, str, str, float]]:
    """The E6 plant, stated once: ``(node, peer, link name, delay)`` per
    link, in creation order.  Each region's border uplinks to the core,
    then its hosts attach to the border; ``core`` precedes every row."""
    for region in range(regions):
        border, hosts = _region_names(region, hosts_per_region)
        yield border, "core", f"{border}--core", 0.002
        for host in hosts:
            yield host, border, f"{host}--{border}", 0.001


def build_physical(regions: int, hosts_per_region: int, seed: int = 1) -> Network:
    """k regional stars joined by a core node."""
    network = Network(seed=seed)
    network.add_node("core")
    for node, peer, name, delay in _plant(regions, hosts_per_region):
        network.add_node(node)
        network.connect(node, peer, delay=delay, name=name)
    return network


def _policies() -> DifPolicies:
    return DifPolicies(keepalive_interval=0.5, dead_factor=4, spf_delay=0.02,
                       refresh_interval=None)


def _layers(config: str, regions: int, hosts_per_region: int
            ) -> List[Tuple[str, List[Tuple[str, str, str]], str, float]]:
    """One configuration's DIFs, lowest rank first, as rows of
    ``(name, adjacencies, bootstrap, settle)``.  An adjacency names the
    lower DIF it rides: a link's shim, or a DIF of an earlier row."""
    shims = [(node, peer, shim_name_for(name))
             for node, peer, name, _delay in _plant(regions, hosts_per_region)]
    if config == "flat":
        # one DIF over everything
        return [("flat", shims, "core", 1.0)]
    if config != "recursive":
        raise ValueError(f"unknown config {config!r}")
    # a DIF per region, the backbone over the borders, and a host-to-host
    # DIF from the first host of region 0 to the first host of the last
    # region, riding the region DIFs and the backbone
    layers = [(f"region{region}",
               [adjacency for adjacency in shims
                if adjacency[1] == f"border{region}"],
               f"border{region}", 0.3)
              for region in range(regions)]
    layers.append(("backbone",
                   [adjacency for adjacency in shims if adjacency[1] == "core"],
                   "core", 0.3))
    last = regions - 1
    layers.append(("h2h", [("h0_0", "border0", "region0"),
                           ("border0", f"border{last}", "backbone"),
                           (f"border{last}", f"h{last}_0", f"region{last}")],
                   "border0", 0.3))
    return layers


def build_stack(config: str, regions: int, hosts_per_region: int,
                seed: int = 1):
    """The E6 plant with one configuration's DIFs built over it:
    ``flat`` is one DIF over every system; ``recursive`` is the region
    DIFs, the backbone DIF and the host-to-host DIF."""
    layers = _layers(config, regions, hosts_per_region)
    network = build_physical(regions, hosts_per_region, seed)
    systems = make_systems(network)
    add_shims(systems, network)
    orchestrator = Orchestrator(network)
    difs: Dict[str, Dif] = {}
    for name, adjacencies, bootstrap, settle in layers:
        dif = difs[name] = Dif(name, _policies())
        build_dif_over(orchestrator, dif, systems, adjacencies=adjacencies,
                       bootstrap=bootstrap, settle=settle)
    orchestrator.run(timeout=600)
    return network, systems, difs


def _state_stats(difs: Dict[str, Dif]) -> Dict[str, float]:
    per_system: Dict[str, int] = {}
    for dif in difs.values():
        for ipcp in dif.members().values():
            per_system[ipcp.system_name] = (
                per_system.get(ipcp.system_name, 0) + ipcp.routing.table_size())
    sizes = list(per_system.values())
    return {
        "mean_table": sum(sizes) / len(sizes),
        "max_table": max(sizes),
        "total_state": sum(sizes),
    }


#: The access link every configuration flaps to measure update scope.
_FLAP_LINK = "h0_1--border0"


def _flap_scope(network: Network, difs: Dict[str, Dif]) -> int:
    """Fail+repair one access link; count systems receiving an update."""
    before = {}
    for dif in difs.values():
        for ipcp in dif.members().values():
            before[(str(dif.name), ipcp.system_name)] = ipcp.routing.lsas_received
    link = network.links[_FLAP_LINK]
    link.fail()
    network.run(until=network.engine.now + 4.0)
    link.repair()
    network.run(until=network.engine.now + 4.0)
    touched = set()
    for dif in difs.values():
        for ipcp in dif.members().values():
            key = (str(dif.name), ipcp.system_name)
            if ipcp.routing.lsas_received > before.get(key, 0):
                touched.add(ipcp.system_name)
    return len(touched)


def run_ip_rip(regions: int, hosts_per_region: int,
               seed: int = 1, update_interval: float = 1.0) -> Dict[str, Any]:
    """The baseline row: one global distance-vector IGP (RIP-style).

    The flat-IP world's analogue of the flat DIF: every router carries a
    route per subnet, periodic full-table updates flow everywhere, and a
    link flap eventually touches every table.
    """
    from ..baselines import IpFabric
    from ..baselines.rip import run_rip_network
    network = build_physical(regions, hosts_per_region, seed)
    routers = ["core"] + [f"border{r}" for r in range(regions)]
    fabric = IpFabric(network, routers=routers)
    for host in fabric.hosts.values():
        host.ip.clear_routes()
    daemons = run_rip_network(fabric, update_interval=update_interval)
    network.run(until=10 * update_interval)
    sizes = [daemon.table_size() for daemon in daemons.values()]
    updates_before = sum(d.updates_sent for d in daemons.values())
    window = 5 * update_interval
    start = network.engine.now
    # steady-state update cost over a window
    network.run(until=start + window)
    updates_rate = (sum(d.updates_sent for d in daemons.values())
                    - updates_before) / window
    # flap scope: whose table changes after an access link flaps
    def snapshot():
        return {name: {key: (r.metric, r.next_hop)
                       for key, r in d._routes.items()}
                for name, d in daemons.items()}
    before = snapshot()
    link = network.links[_FLAP_LINK]
    link.fail()
    network.run(until=network.engine.now + 8 * update_interval)
    during = snapshot()   # the failure's footprint across tables
    link.repair()
    network.run(until=network.engine.now + 8 * update_interval)
    touched = sum(1 for name in daemons if before[name] != during[name])
    return {
        "config": "ip+rip",
        "systems": len(network.nodes),
        "regions": regions,
        "mean_table": round(sum(sizes) / len(sizes), 2),
        "max_table": max(sizes),
        "total_state": sum(sizes),
        "flap_update_scope": touched,
        "updates_per_s": round(updates_rate, 1),
    }


#: The routing-state columns of an E6 row, after ``config``.
_TABLE_COLUMNS = ("systems", "regions", "mean_table", "max_table",
                 "total_state", "flap_update_scope")


def run_config(config: str, regions: int, hosts_per_region: int,
               seed: int = 1) -> Dict[str, Any]:
    """One row of the E6 table: the routing-state columns of
    :func:`run_scale`'s row, or the RIP baseline's row for ``ip+rip``."""
    if config == "ip+rip":
        return run_ip_rip(regions, hosts_per_region, seed)
    row = run_scale(config, regions, hosts_per_region, seed)
    return {"config": config, **{key: row[key] for key in _TABLE_COLUMNS}}


def run_scale(config: str, regions: int, hosts_per_region: int,
              seed: int = 1) -> Dict[str, Any]:
    """One scale-tier row: build the stack, record wall-clock and
    events/sec alongside the routing-state metrics.

    Unlike :func:`run_config` this is a *performance* row: its
    ``events`` are pinned exactly in ``tests/test_event_census.py`` and
    ``tests/test_e6_rows.py``, and ``python -m repro e6-scale`` prints
    its wall-clock and ``events_per_s``.
    """
    started = time.perf_counter()
    network, _systems, difs = build_stack(config, regions, hosts_per_region,
                                          seed)
    build_wall = time.perf_counter() - started
    stats = _state_stats(difs)
    scope = _flap_scope(network, difs)
    wall = time.perf_counter() - started
    members = [ipcp for dif in difs.values()
               for ipcp in dif.members().values()]
    reflooded = sum(ipcp.routing.lsas_reflooded for ipcp in members)
    return {
        "config": f"{config}-scale",
        "systems": len(network.nodes),
        "regions": regions,
        "mean_table": round(stats["mean_table"], 2),
        "max_table": stats["max_table"],
        "total_state": stats["total_state"],
        "flap_update_scope": scope,
        "lsas_reflooded": reflooded,
        # the lazy-SPF summary: how much Dijkstra the PR-2 laziness
        # avoided across every member of this tier's stack
        "spf_runs": sum(ipcp.routing.spf_runs for ipcp in members),
        "spf_skipped": sum(ipcp.routing.spf_skipped for ipcp in members),
        "build_s": round(build_wall, 2),
        **_speed_columns(network.engine.events_processed, wall),
    }


def iter_jobs(sizes: List[Tuple[int, int]] = ((3, 4), (4, 8)),
              seed: int = 1) -> List[Job]:
    """The E6 table as data: per size, the flat, recursive, and ip+rip
    configurations, in that row order."""
    from ..sweeps import Job
    return [Job("repro.experiments.e6_scalability:run_config",
                kwargs={"config": config, "regions": regions,
                        "hosts_per_region": hosts, "seed": seed},
                group="e6", label=f"e6 {config} {regions}x{hosts}")
            for regions, hosts in sizes
            for config in ("flat", "recursive", "ip+rip")]


def iter_scale_jobs(tiers: List[str] = ("small", "medium", "large"),
                    seed: int = 1) -> List[Job]:
    """The scale tier as data: flat at the small size (the quadratic
    baseline), recursive at every requested tier, in tier order.  Scale
    rows carry wall-clock fields (:data:`repro.sweeps.WALL_CLOCK_KEYS`),
    so only their deterministic columns are covered by serial
    equivalence."""
    from ..sweeps import Job
    jobs = []
    for tier in tiers:
        if tier not in SCALE_SIZES:
            raise ValueError(f"unknown scale tier {tier!r}; "
                             f"known: {', '.join(SCALE_SIZES)}")
        regions, hosts = SCALE_SIZES[tier]
        if tier == "small":
            jobs.append(Job("repro.experiments.e6_scalability:run_scale",
                            kwargs={"config": "flat", "regions": regions,
                                    "hosts_per_region": hosts, "seed": seed},
                            group="e6-scale", label=f"e6-scale flat {tier}"))
        jobs.append(Job("repro.experiments.e6_scalability:run_scale",
                        kwargs={"config": "recursive", "regions": regions,
                                "hosts_per_region": hosts, "seed": seed},
                        group="e6-scale", label=f"e6-scale recursive {tier}"))
    return jobs


def build_flood_spec(regions: int, hosts_per_region: int):
    """The E6 physical plant as a pure-data
    :class:`~repro.shard.plan.NetworkSpec`: the rows of
    :func:`build_physical`, shardable by region."""
    from ..shard import NetworkSpec
    from ..sim.plant import LinkSpec
    rows = list(_plant(regions, hosts_per_region))
    return NetworkSpec(
        nodes=("core",) + tuple(node for node, _peer, _name, _delay in rows),
        links=tuple(LinkSpec(a=node, b=peer, name=name, delay=delay)
                    for node, peer, name, delay in rows))


def flood_assignment(regions: int, hosts_per_region: int,
                     shards: int) -> Dict[str, int]:
    """Node → shard: region ``r`` (border + hosts) lands on shard
    ``r % shards``; the core rides with shard 0, so every cut link is a
    border–core backbone link (delay 0.002 — the lookahead)."""
    shards = max(1, min(shards, regions))
    assignment = {"core": 0}
    for region in range(regions):
        border, hosts = _region_names(region, hosts_per_region)
        for node in [border] + hosts:
            assignment[node] = region % shards
    return assignment


#: The stateful tier: (regions, hosts/region) per named size.  Smaller
#: than :data:`SCALE_SIZES` deliberately — a stateful system runs the
#: whole control plane (enrollment, RIEP, flooding, keepalives), so a
#: "small" stateful plant already moves more PDUs than a large flood.
STATEFUL_SIZES: Dict[str, Tuple[int, int]] = {
    "small": (3, 4),       # 16 systems
    "medium": (6, 6),      # 43 systems
    "large": (10, 10),     # 111 systems
}

#: Stateful enrollment schedule constants (simulated seconds).  Odd
#: spacings, co-prime with the plant's 1/2 ms hop delays, keep causal
#: chains tie-free (see repro.shard.stateful).  Borders join first
#: (their authenticator is the bootstrap core), hosts after a margin
#: that covers the slowest border handshake.
STATEFUL_BORDER_START = 0.0511
STATEFUL_BORDER_SPACING = 0.0511
STATEFUL_HOST_SPACING = 0.0127
STATEFUL_HOST_MARGIN = 0.1003
STATEFUL_SETTLE = 1.2007


def build_stateful_workload(regions: int, hosts_per_region: int, *,
                            host_spacing: float = STATEFUL_HOST_SPACING,
                            settle: float = STATEFUL_SETTLE,
                            policies: Optional[Dict[str, float]] = None,
                            ) -> Dict[str, Any]:
    """The flat configuration's *control plane* as a pure-data workload:
    bootstrap at the core, every border then every host enrolling at
    fixed staggered times, unique topological hints per system (so
    address assignment is a pure function of the joiner — the property
    that lets each shard's Dif replica assign independently; see
    :mod:`repro.shard.stateful`).

    ``host_spacing`` / ``settle`` / ``policies`` reshape the traffic
    density without touching the plant: stretched, most regions are
    idle at any instant (the round rule's sparse-traffic regression in
    ``tests/``).
    """
    from ..shard import stateful_workload
    hints: Dict[str, Tuple[int, ...]] = {"core": (1,)}
    enrollments: List[Tuple[str, str, str, float]] = []
    for region in range(regions):
        border, _hosts = _region_names(region, hosts_per_region)
        hints[border] = (2 + region, 0)
        enrollments.append((border, "core", f"shim:{border}--core",
                            STATEFUL_BORDER_START
                            + region * STATEFUL_BORDER_SPACING))
    host_start = (STATEFUL_BORDER_START + regions * STATEFUL_BORDER_SPACING
                  + STATEFUL_HOST_MARGIN)
    index = 0
    for region in range(regions):
        border, hosts = _region_names(region, hosts_per_region)
        for host_index, host in enumerate(hosts):
            hints[host] = (2 + region, 1 + host_index)
            enrollments.append((host, border, f"shim:{host}--{border}",
                                host_start + index * host_spacing))
            index += 1
    until = host_start + index * host_spacing + settle
    return stateful_workload("flat", "core", enrollments, hints,
                             policies=policies, until=until)


def _stateful_row(node_stats: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The deterministic columns shared by every stateful row: RIB
    fingerprint over all members (must be invariant across shard
    counts) and the aggregate routing state."""
    import hashlib
    text = "\n".join(repr(row) for row in node_stats)
    return {
        "table_rows": sum(row["table_size"] for row in node_stats),
        "lsas_received": sum(row["lsas_received"] for row in node_stats),
        "rib_sha256": hashlib.sha256(text.encode()).hexdigest()[:16],
    }


def _tier_run(kind: str, regions: int, hosts_per_region: int, shards: int,
              seed: int, mode: str = "auto", collect_rows: bool = False,
              origins: Optional[int] = None):
    """``(spec, result, wall)`` of one run of a sharded tier's plant
    with the ``kind`` workload: the flood storm (``origins`` sparse
    announcements when given), or the stateful enrollment schedule.
    ``shards <= 1`` is the single-engine reference run."""
    from ..shard import (RegionPlan, all_nodes_announce, run_sharded,
                         run_unsharded, sparse_announce)
    spec = build_flood_spec(regions, hosts_per_region)
    if kind == "flood":
        workload = (all_nodes_announce(spec.nodes) if origins is None
                    else sparse_announce(spec.nodes, origins))
    else:
        workload = build_stateful_workload(regions, hosts_per_region)
    until = workload.get("until")
    started = time.perf_counter()
    if shards <= 1:
        result = run_unsharded(spec, workload, seed=seed, until=until,
                               collect_rows=collect_rows)
    else:
        plan = RegionPlan(spec, flood_assignment(regions, hosts_per_region,
                                                 shards))
        result = run_sharded(plan, workload, seed=seed, mode=mode,
                             until=until, collect_rows=collect_rows,
                             collect_traces=False)
    return spec, result, time.perf_counter() - started


def run_stateful_scale(regions: int, hosts_per_region: int, shards: int = 1,
                       seed: int = 1, mode: str = "auto") -> Dict[str, Any]:
    """One stateful-tier row: the flat configuration's *control plane*
    (enrollment + RIEP + LSA flooding + keepalives) run unsharded
    (``shards=1``) or region-sharded over worker processes.

    The deterministic columns — enrolled members, total table rows,
    LSAs received, and the combined RIB fingerprint — must be
    bit-invariant across shard counts;
    ``tests/test_shard_stateful.py`` pins the 2-shard split
    row-identical (float enrollment timestamps included) to the
    unsharded run.
    """
    spec, result, wall = _tier_run("stateful", regions, hosts_per_region,
                                   shards, seed, mode, collect_rows=True)
    return {
        "config": "flat-stateful",
        "systems": len(spec.nodes),
        "regions": regions,
        "shards": len(result.shards),
        "enrolled": sum(s["enrolled"] for s in result.shards),
        "rounds": result.rounds,
        "grants": result.grants,
        "region_steps": result.steps,
        "frames_relayed": result.frames_relayed,
        "relay_batches": result.relay_batches,
        "relay_bytes": result.relay_bytes,
        **_stateful_row(result.node_stats),
        **_speed_columns(result.events, wall),
    }


def run_flood_scale(regions: int, hosts_per_region: int, shards: int = 1,
                    seed: int = 1,
                    origins: Optional[int] = None) -> Dict[str, Any]:
    """One sharded-tier row: the flat configuration's flooding fan-out
    (every system originates one LSA-style announcement, flooded to all
    n systems) at frame level, partitioned over ``shards`` region
    engines.

    This is the data path that makes the flat DIF at 20×50 cost minutes
    — modelled without the enrollment control plane so it can be cut at
    DIF boundaries and measured at full scale.  ``shards=1`` is the
    single-engine reference row; delivery counts are invariant across
    shard counts (and the 2-shard split is pinned delivery-row-identical
    to the unsharded run in ``tests/test_shard.py``).

    ``origins`` switches the workload from the quadratic every-node
    storm to :func:`repro.shard.sparse_announce` with that many evenly
    spread origins — the 100k-system tier's regime (see
    :data:`FLOOD_TIER_ORIGINS`).  Deliveries are then
    ``origins * (n - 1)`` instead of ``n * (n - 1)``.
    """
    spec, result, wall = _tier_run("flood", regions, hosts_per_region,
                                   shards, seed, origins=origins)
    n = len(spec.nodes)
    return {
        "config": "flat-flood",
        "systems": n,
        "regions": regions,
        "shards": len(result.shards),
        "origins": origins if origins is not None else n,
        "deliveries": sum(s["deliveries"] for s in result.shards),
        "duplicates": sum(s["duplicates"] for s in result.shards),
        "rounds": result.rounds,
        "region_steps": result.steps,
        "frames_relayed": result.frames_relayed,
        **_speed_columns(result.events, wall),
    }


#: Per sharded-tier workload kind: (tier sizes, the row's job target,
#: job group, the configuration its labels name).
_SHARD_TIERS = {
    "flood": (FLOOD_SIZES, "run_flood_scale", "e6-shard", "flat-flood"),
    "stateful": (STATEFUL_SIZES, "run_stateful_scale", "e6-stateful",
                 "flat"),
}


def iter_shard_jobs(kind: str, tiers: List[str], shards: int = 2,
                    seed: int = 1) -> List[Job]:
    """A sharded tier as data: per tier, the single-engine reference
    row and the ``shards``-way partitioned row of the ``kind``
    workload (``"flood"`` or ``"stateful"``).  Each job is one whole
    sharded run — the coordinator spawns its own per-region workers, so
    dispatch these with ``--jobs 1`` (inside a daemonic pool worker the
    coordinator falls back to in-process rounds)."""
    from ..sweeps import Job
    sizes, target, group, config = _SHARD_TIERS[kind]
    jobs = []
    for tier in tiers:
        if tier not in sizes:
            raise ValueError(f"unknown {kind} tier {tier!r}; "
                             f"known: {', '.join(sizes)}")
        regions, hosts = sizes[tier]
        kwargs = {"regions": regions, "hosts_per_region": hosts,
                  "seed": seed}
        if kind == "flood":
            kwargs["origins"] = FLOOD_TIER_ORIGINS.get(tier)
        # dict.fromkeys: --shards 1 means one reference row, not two
        for count in dict.fromkeys((1, shards)):
            jobs.append(Job(f"repro.experiments.e6_scalability:{target}",
                            kwargs={**kwargs, "shards": count},
                            group=group,
                            label=f"{group} {config} {tier} x{count}"))
    return jobs
