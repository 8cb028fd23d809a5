"""A1 — ablation of §5.3: topological vs flat addressing.

"To facilitate routing, we would want to route over a topology that is
perhaps more stable [...] internal addresses should be topological
(location-dependent)."

One DIF over an ``n × n`` grid whose quadrants are the "regions" (a grid
gives every member several distinct next hops, so aggregation is earned,
not a default-route freebie).  Three addressing policies at enrollment:

* **flat** — opaque counters; the forwarding table cannot aggregate: one
  entry per destination.
* **topological** — each member's address is prefixed with its region
  path (the region hint comes from where it physically enrolls); entries
  whose region shares a next hop collapse into one prefix entry.
* **mismatched** — topological *format* but hints assigned round-robin,
  deliberately uncorrelated with location: shows aggregation needs
  addresses that follow the topology, not merely structured bits.

Measured per member: raw table entries vs aggregated prefix entries, and
(as a sanity check) that longest-prefix lookup over the aggregated table
agrees with the raw table for every destination.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..core import (Dif, DifPolicies, FlatAddressing, Orchestrator,
                    TopologicalAddressing, add_shims,
                    aggregate_forwarding_table, build_dif_over, lookup_aggregated,
                    make_systems, shim_between)
from ..sim.network import Network, grid
from ..sim.plant import LinkSpec, build_plant
from ..sweeps import Job


def build_grid_dif(side: int, policy: str, seed: int = 1):
    """One DIF over a ``side × side`` grid; region hints per the policy.

    Regions are the grid quadrants; the quadrant label is the region hint
    a member presents at enrollment (its management knows where it is).
    """
    network = Network(seed=seed)
    names, edges = grid(side, side)
    build_plant(network, names,
                [LinkSpec(a, b, delay=0.001) for a, b in edges])
    matrix = [names[row * side:(row + 1) * side] for row in range(side)]
    systems = make_systems(network)
    add_shims(systems, network)

    def quadrant(row: int, col: int) -> int:
        return (2 if row >= (side + 1) // 2 else 0) + (
            1 if col >= (side + 1) // 2 else 0) + 1

    adjacencies = [(a, b, shim_between(network, a, b)) for a, b in edges]

    if policy == "flat":
        addressing = FlatAddressing()
        region_hints: Dict[str, List[int]] = {}
    elif policy == "topological":
        addressing = TopologicalAddressing()
        region_hints = {matrix[row][col]: [quadrant(row, col)]
                        for row in range(side) for col in range(side)}
    elif policy == "mismatched":
        addressing = TopologicalAddressing()
        # structured addresses, but hints genuinely uncorrelated with
        # location: a seeded shuffle of the quadrant labels
        labels = [(index % 4) + 1 for index in range(side * side)]
        network.streams.stream("a1-mismatch").shuffle(labels)
        region_hints = {}
        for index, (row, col) in enumerate(
                (r, c) for r in range(side) for c in range(side)):
            region_hints[matrix[row][col]] = [labels[index]]
    else:
        raise ValueError(f"unknown policy {policy!r}")

    dif = Dif("net", DifPolicies(addressing=addressing, keepalive_interval=2.0,
                                 refresh_interval=None))
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, dif, systems, adjacencies=adjacencies,
                   bootstrap=matrix[0][0], region_hints=region_hints,
                   settle=1.0)
    orchestrator.run(timeout=600)
    network.run(until=network.engine.now + 1.0)
    return network, systems, dif


def run_policy(policy: str, side: int = 4, seed: int = 1) -> Dict[str, Any]:
    """One row of the A1 table."""
    network, systems, dif = build_grid_dif(side, policy, seed)
    raw_sizes: List[int] = []
    aggregated_sizes: List[int] = []
    lookups_consistent = True
    for ipcp in dif.members().values():
        table = ipcp.routing.table()
        raw_sizes.append(len(table))
        entries = aggregate_forwarding_table(table)
        aggregated_sizes.append(len(entries))
        for destination, next_hop in table.items():
            if lookup_aggregated(entries, destination) != next_hop:
                lookups_consistent = False
    members = len(raw_sizes)
    return {
        "policy": policy,
        "members": members,
        "raw_mean": sum(raw_sizes) / members,
        "raw_max": max(raw_sizes),
        "aggregated_mean": round(sum(aggregated_sizes) / members, 2),
        "aggregated_max": max(aggregated_sizes),
        "compression": round(sum(raw_sizes) / max(1, sum(aggregated_sizes)), 2),
        "lookups_consistent": lookups_consistent,
    }


def iter_jobs(side: int = 5, seed: int = 1) -> List[Job]:
    """The A1 table as data: one job per addressing policy."""
    return [Job("repro.experiments.a1_addressing:run_policy",
                kwargs={"policy": policy, "side": side, "seed": seed},
                group="a1", label=f"a1 {policy}")
            for policy in ("flat", "topological", "mismatched")]
