"""Seeded random sampling of valid scenario specs.

Turns scenario coverage from O(hand-written files) into O(combinations):
``generate_specs(seed, count)`` yields ``count`` independent, *valid*
specs — topology family, DIF depth, workload mix, and fault schedule all
sampled — with the fault kinds cycled so any batch of ≥ ``len(FAULT_KINDS)``
specs exercises every injector (the network-condition windows included).  Sampling is pure (one ``random.Random`` per spec, no
global state), so the same seed always yields the same specs: the
determinism tests lean on this to fingerprint whole fuzz batches.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from ..sim.rng import RandomStreams
from .runner import family_edges
from .spec import (FAULT_KINDS, FaultSpec, LinkSpec, Scenario, TopologySpec,
                   WorkloadSpec)

_FAMILIES = ("chain", "star", "tree", "grid", "random", "ring_of_stars")
_LINK_FAULTS = ("link-flap", "link-degrade", "congestion", "jitter-storm",
                "bandwidth-squeeze", "corruption-storm", "reorder-burst")


def _sample_topology(rng: random.Random) -> TopologySpec:
    family = rng.choice(_FAMILIES)
    if family == "chain":
        params = {"count": rng.randint(3, 6)}
    elif family == "star":
        params = {"leaves": rng.randint(3, 5)}
    elif family == "tree":
        params = {"depth": 2, "arity": 2}
    elif family == "grid":
        params = {"rows": 2, "cols": rng.randint(2, 3)}
    elif family == "ring_of_stars":
        params = {"regions": 3, "hosts": rng.randint(1, 2)}
    else:
        params = {"count": rng.randint(4, 6), "edge_factor": 1.4}
    return TopologySpec(family=family, params=params,
                        link={"capacity_bps": rng.choice([2e7, 5e7, 1e8]),
                              "delay": rng.choice([0.001, 0.003, 0.01])})


def _freeze_topology(topology: TopologySpec, seed: int):
    """Realize the sampled family once and freeze it into an
    ``explicit`` spec (nodes + links listed one by one).

    Frozen specs are self-contained: the runner's seed cannot change the
    structure a fault schedule targets (a ``random``-family graph would
    otherwise realize differently under a different master seed)."""
    nodes, edges = family_edges(topology, RandomStreams(seed))
    links = [LinkSpec(a, b, **topology.link) for a, b in edges]
    frozen = TopologySpec(family="explicit", nodes=nodes, links=links)
    return frozen, nodes, [
        f"{a}--{b}#{index}" for index, (a, b) in enumerate(edges)]


def _sample_workloads(rng: random.Random, nodes: Sequence[str],
                      duration: float) -> List[WorkloadSpec]:
    workloads = []
    count = rng.randint(1, 2)
    for _ in range(count):
        client, server = rng.sample(list(nodes), 2)
        kind = rng.choice(("echo", "echo", "transfer", "stream"))
        if kind == "echo":
            workloads.append(WorkloadSpec(
                kind="echo", client=client, server=server, start=1.0,
                period=0.05, count=min(80, int((duration - 1.5) / 0.05)),
                size=rng.choice([120, 200])))
        elif kind == "transfer":
            workloads.append(WorkloadSpec(
                kind="transfer", client=client, server=server, start=1.0,
                bytes=rng.choice([20_000, 40_000])))
        else:
            workloads.append(WorkloadSpec(
                kind="stream", client=client, server=server, start=1.0,
                period=0.04, size=300))
    return workloads


def _sample_fault(rng: random.Random, kind: str, nodes: Sequence[str],
                  links: Sequence[str],
                  endpoints: Sequence[str]) -> FaultSpec:
    at = round(rng.uniform(1.5, 3.0), 3)
    duration = round(rng.uniform(0.6, 1.5), 3)
    if kind == "node-crash":
        candidates = [n for n in nodes if n not in endpoints]
        if not candidates:
            kind = "link-flap"   # fall back: every node hosts an endpoint
        else:
            return FaultSpec(kind="node-crash",
                             target=rng.choice(candidates),
                             at=at, duration=duration + 0.5)
    if kind == "partition":
        size = rng.randint(1, max(1, min(2, len(nodes) - 1)))
        group = rng.sample(list(nodes), size)
        return FaultSpec(kind="partition", target=group, at=at,
                         duration=duration)
    target = rng.choice(list(links))
    if kind == "jitter-storm":
        return FaultSpec(kind="jitter-storm", target=target, at=at,
                         duration=duration,
                         jitter_s=rng.choice([0.002, 0.005, 0.01]),
                         jitter_model=rng.choice(["uniform", "normal"]))
    if kind == "bandwidth-squeeze":
        return FaultSpec(kind="bandwidth-squeeze", target=target, at=at,
                         duration=duration,
                         rate_bps=rng.choice([1e6, 2e6, 5e6]),
                         burst_bytes=rng.choice([3000.0, 8000.0]))
    if kind == "corruption-storm":
        return FaultSpec(kind="corruption-storm", target=target, at=at,
                         duration=duration,
                         corrupt_prob=round(rng.uniform(0.05, 0.25), 3),
                         max_flips=rng.randint(1, 3))
    if kind == "reorder-burst":
        return FaultSpec(kind="reorder-burst", target=target, at=at,
                         duration=duration,
                         reorder_prob=round(rng.uniform(0.1, 0.35), 3),
                         reorder_depth=rng.randint(2, 4))
    if kind == "link-degrade":
        return FaultSpec(kind="link-degrade", target=target, at=at,
                         duration=duration,
                         peak_loss=round(rng.uniform(0.2, 0.6), 3),
                         delay_factor=rng.choice([2.0, 4.0]), steps=3)
    if kind == "congestion":
        return FaultSpec(kind="congestion", target=target, at=at,
                         duration=duration,
                         capacity_factor=rng.choice([4.0, 8.0, 16.0]))
    return FaultSpec(kind="link-flap", target=target, at=at,
                     duration=duration,
                     flaps=rng.choice([1, 1, 2]), period=duration + 1.0)


def generate_scenario(seed: int, index: int = 0) -> Scenario:
    """Sample one valid scenario.  Pure in (seed, index)."""
    rng = random.Random(seed * 1_000_003 + index)
    family = _sample_topology(rng)
    topology, nodes, links = _freeze_topology(family,
                                              seed=rng.randrange(2 ** 31))
    duration = round(rng.uniform(6.0, 8.0), 3)
    workloads = _sample_workloads(rng, nodes, duration)
    endpoints = [w.client for w in workloads] + [w.server for w in workloads]
    # first fault kind cycles deterministically with the index so a batch
    # of >= len(FAULT_KINDS) specs covers every injector
    kinds = [FAULT_KINDS[index % len(FAULT_KINDS)]]
    for _ in range(rng.randint(0, 2)):
        kinds.append(rng.choice(FAULT_KINDS))
    faults = [_sample_fault(rng, kind, nodes, links, endpoints)
              for kind in kinds]
    depth = rng.choice([1, 1, 2])
    scenario = Scenario(
        name=f"gen-{seed}-{index}",
        topology=topology,
        dif_depth=depth,
        workloads=workloads,
        faults=faults,
        duration=duration,
        description=(f"generated: {family.family} depth={depth} "
                     f"faults={[f.kind for f in faults]}"))
    scenario.validate(nodes)
    return scenario


def generate_specs(seed: int, count: int = 20) -> List[Scenario]:
    """A batch of independent specs; ≥ ``len(FAULT_KINDS)`` of them cover
    every injector."""
    return [generate_scenario(seed, index) for index in range(count)]
