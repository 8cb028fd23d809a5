"""Canned scenario specs.

Two families live here:

* re-expressions of the bespoke E3/E4/E5 experiment setups as declarative
  specs — the experiment modules now *build their stacks from these* and
  keep only their measurement logic;
* composite demonstrations (``fault-storm``) that exercise every injector
  in one run, used by the CLI, the tests, and the examples.

Every entry in :data:`CANNED` is a zero-argument callable returning a
fresh :class:`~repro.scenarios.spec.Scenario`.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .spec import (SHIM, FaultSpec, LayerSpec, LinkSpec, Scenario,
                   TopologySpec, WorkloadSpec)

# ----------------------------------------------------------------------
# E3 — Fig 3/§6.2: a wireless-scope DIF under the internet DIF
# ----------------------------------------------------------------------
E3_WIRED_BPS = 5e7
E3_WIRELESS_BPS = 2e7

_E3_INTERNET_POLICIES = {
    "keepalive_interval": 2.0, "dead_factor": 8,
    "efcp_overrides": {"rto_min": 0.2, "rto_initial": 0.3,
                       "initial_credit": 64},
    "lower_flow_cube": "reliable",
}
_E3_WIRELESS_POLICIES = {
    "keepalive_interval": 2.0, "dead_factor": 8,
    "efcp_overrides": {"rto_min": 0.005, "rto_initial": 0.03,
                       "rto_max": 0.2, "initial_credit": 128},
}


def e3_scenario(config: str = "scoped", wired_delay: float = 0.06) -> Scenario:
    """The E3 plant: ``sender — (wired) — border — (lossy radio) — mobile``,
    one wide-scope DIF, optionally a 2-member wireless DIF under its last
    hop.  The experiment injects loss through the radio link's loss knob;
    the standalone scenario carries a link-degrade fault instead."""
    if config not in ("e2e", "scoped"):
        raise ValueError(f"unknown configuration {config!r}")
    topology = TopologySpec(
        family="explicit",
        nodes=["sender", "border", "mobile"],
        links=[LinkSpec("sender", "border", capacity_bps=E3_WIRED_BPS,
                        delay=wired_delay),
               LinkSpec("border", "mobile", capacity_bps=E3_WIRELESS_BPS,
                        delay=0.004, loss=0.0)])
    layers: List[LayerSpec] = []
    mobile_lower = SHIM
    if config == "scoped":
        layers.append(LayerSpec(
            name="wifi", policies=dict(_E3_WIRELESS_POLICIES),
            adjacencies=[("border", "mobile", SHIM)]))
        mobile_lower = "wifi"
    layers.append(LayerSpec(
        name="internet", policies=dict(_E3_INTERNET_POLICIES),
        adjacencies=[("sender", "border", SHIM),
                     ("border", "mobile", mobile_lower)]))
    return Scenario(
        name=f"e3-{config}",
        description="Fig 3/§6.2: wireless-scope DIF vs end-to-end recovery",
        topology=topology, layers=layers, build_timeout=60,
        workloads=[WorkloadSpec(kind="transfer", client="sender",
                                server="mobile", bytes=120_000, start=1.0,
                                qos="reliable", dif="internet")],
        faults=[FaultSpec(kind="link-degrade", target="border--mobile",
                          at=1.1, duration=2.0, peak_loss=0.3,
                          delay_factor=2.0)],
        duration=12.0)


# ----------------------------------------------------------------------
# E4 — Fig 4/§6.3: multihoming failover below a surviving flow
# ----------------------------------------------------------------------
def e4_scenario(keepalive_interval: float = 0.2) -> Scenario:
    """A host with two attachments to its provider; the primary dies."""
    topology = TopologySpec(
        family="explicit",
        nodes=["host", "provider"],
        links=[LinkSpec("host", "provider", name="uplink#a", delay=0.005),
               LinkSpec("host", "provider", name="uplink#b", delay=0.005)])
    layers = [LayerSpec(
        name="net",
        policies={"keepalive_interval": keepalive_interval, "dead_factor": 3},
        adjacencies=[("host", "provider", "link:uplink#a"),
                     ("host", "provider", "link:uplink#b")])]
    return Scenario(
        name="e4-multihoming",
        description="Fig 4/§6.3: PoA failover vs TCP/SCTP",
        topology=topology, layers=layers, build_timeout=30,
        workloads=[WorkloadSpec(kind="echo", client="host",
                                server="provider", period=0.05, count=120,
                                size=200, start=1.0)],
        faults=[FaultSpec(kind="link-flap", target="uplink#a", at=2.0,
                          duration=None)],
        duration=10.0)


# ----------------------------------------------------------------------
# E5 — Fig 5/§6.4: mobility plant (three DIFs of different rank)
# ----------------------------------------------------------------------
_E5_REGION_POLICIES = {"keepalive_interval": 0.1, "dead_factor": 3,
                       "spf_delay": 0.01, "refresh_interval": None}
_E5_METRO_POLICIES = {"keepalive_interval": 0.4, "dead_factor": 3,
                      "spf_delay": 0.01, "refresh_interval": None}


def e5_scenario() -> Scenario:
    """Fig 5's physical plant and three-DIF stack.  The experiment drives
    the actual moves (enroll/attach orchestration); the standalone
    scenario instead flaps the mobile's current radio."""
    topology = TopologySpec(
        family="explicit",
        nodes=["m", "bs1", "bs2", "bs3", "bs4", "r1", "r2", "b", "c"],
        links=([LinkSpec("m", bs, name=f"radio:{bs}", capacity_bps=2e7,
                         delay=0.003) for bs in ("bs1", "bs2", "bs3", "bs4")]
               + [LinkSpec("bs1", "r1", name="bs1--r1", delay=0.002),
                  LinkSpec("bs2", "r1", name="bs2--r1", delay=0.002),
                  LinkSpec("bs3", "r2", name="bs3--r2", delay=0.002),
                  LinkSpec("bs4", "r2", name="bs4--r2", delay=0.002),
                  LinkSpec("r1", "b", name="r1--b", delay=0.01),
                  LinkSpec("r2", "b", name="r2--b", delay=0.01),
                  LinkSpec("c", "b", name="c--b", delay=0.01)]))
    layers = [
        LayerSpec(name="region1", policies=dict(_E5_REGION_POLICIES),
                  adjacencies=[("bs1", "r1", "link:bs1--r1"),
                               ("bs2", "r1", "link:bs2--r1"),
                               ("m", "bs1", "link:radio:bs1")]),
        LayerSpec(name="region2", policies=dict(_E5_REGION_POLICIES),
                  adjacencies=[("bs3", "r2", "link:bs3--r2"),
                               ("bs4", "r2", "link:bs4--r2")]),
        LayerSpec(name="metro", policies=dict(_E5_METRO_POLICIES),
                  adjacencies=[("r1", "b", "link:r1--b"),
                               ("r2", "b", "link:r2--b"),
                               ("c", "b", "link:c--b"),
                               ("m", "r1", "region1")]),
    ]
    return Scenario(
        name="e5-mobility",
        description="Fig 5/§6.4: three-DIF mobility plant",
        topology=topology, layers=layers, build_timeout=60,
        workloads=[WorkloadSpec(kind="echo", client="c", server="m",
                                period=0.05, count=120, size=120,
                                start=1.0, dif="metro")],
        faults=[FaultSpec(kind="link-flap", target="radio:bs1", at=2.5,
                          duration=2.0)],
        duration=10.0)


# ----------------------------------------------------------------------
# Composite: every injector in one run
# ----------------------------------------------------------------------
def fault_storm() -> Scenario:
    """All five fault injectors against a 2×3 grid carrying an echo probe
    and a bulk transfer corner to corner."""
    return Scenario(
        name="fault-storm",
        description="all five injectors on a 2x3 grid, echo + transfer",
        topology=TopologySpec(family="grid",
                              params={"rows": 2, "cols": 3},
                              link={"capacity_bps": 5e7, "delay": 0.002}),
        dif_depth=1,
        workloads=[
            WorkloadSpec(kind="echo", client="g0_0", server="g1_2",
                         period=0.05, count=160, size=200, start=1.0),
            WorkloadSpec(kind="transfer", client="g0_0", server="g1_2",
                         bytes=60_000, start=1.0),
        ],
        faults=[
            FaultSpec(kind="link-flap", target="g0_0--g0_1", at=1.5,
                      duration=0.8),
            FaultSpec(kind="link-degrade", target="g0_1--g0_2", at=3.0,
                      duration=1.2, peak_loss=0.4, delay_factor=3.0),
            FaultSpec(kind="congestion", target="g1_1--g1_2", at=4.5,
                      duration=1.0, capacity_factor=8.0),
            FaultSpec(kind="partition", target=["g0_2", "g1_2"], at=6.0,
                      duration=1.0),
            FaultSpec(kind="node-crash", target="g1_1", at=8.0,
                      duration=1.2),
        ],
        duration=12.0)


# ----------------------------------------------------------------------
# Scale-tier family: regional stars over a backbone ring (E6's plant)
# ----------------------------------------------------------------------
def ring_of_stars(regions: int = 4, hosts: int = 3) -> Scenario:
    """Regional access stars on a redundant backbone ring.  The echo probe
    crosses the ring between opposite regions while a backbone link flaps —
    the ring's redundancy should reroute instead of partitioning.  Larger
    instances of the same family drive the E6 scale tier."""
    return Scenario(
        name=f"ring-of-stars-{regions}x{hosts}",
        description=f"{regions} regional stars on a backbone ring, "
                    f"backbone flap rerouted",
        topology=TopologySpec(family="ring_of_stars",
                              params={"regions": regions, "hosts": hosts},
                              link={"capacity_bps": 5e7, "delay": 0.002}),
        dif_depth=1,
        workloads=[
            WorkloadSpec(kind="echo", client="s0_h0",
                         server=f"s{regions // 2}_h0",
                         period=0.05, count=120, size=200, start=1.0),
            WorkloadSpec(kind="transfer", client="s0_h1",
                         server=f"s{regions // 2}_h1",
                         bytes=40_000, start=1.0),
        ],
        faults=[FaultSpec(kind="link-flap", target="s0--s1", at=2.5,
                          duration=1.5)],
        duration=10.0)


# ----------------------------------------------------------------------
# Network-condition families: jitter / shaping / corruption / reordering
# ----------------------------------------------------------------------
def flash_crowd() -> Scenario:
    """A flash crowd against one origin: the star's leaves open staggered
    echo waves on the hub while a bulk pull rides along; at the peak the
    first access link gets bandwidth-squeezed (a policer saturating) and
    a second one turns jittery."""
    return Scenario(
        name="flash-crowd",
        description="staggered echo waves on a star; access links "
                    "squeezed + jittered at the peak",
        topology=TopologySpec(family="star", params={"leaves": 4},
                              link={"capacity_bps": 2e7, "delay": 0.003}),
        dif_depth=1,
        workloads=[WorkloadSpec(kind="echo", client=f"leaf{i}",
                                server="hub", period=0.04, count=100,
                                size=200, start=1.0 + 0.4 * i)
                   for i in range(4)]
        + [WorkloadSpec(kind="transfer", client="leaf0", server="hub",
                        bytes=40_000, start=1.2)],
        faults=[
            FaultSpec(kind="bandwidth-squeeze", target="hub--leaf0",
                      at=2.0, duration=2.5, rate_bps=2e6,
                      burst_bytes=4000.0),
            FaultSpec(kind="jitter-storm", target="hub--leaf1", at=2.5,
                      duration=2.0, jitter_s=0.008, jitter_model="normal"),
        ],
        duration=10.0)


def diurnal_load() -> Scenario:
    """A diurnal utilization curve compressed into one run: off-peak,
    ramp, midday peak, ramp-down — expressed as bandwidth-squeeze
    windows of increasing severity on a chain's middle hop, with a
    jitter storm riding the peak."""
    return Scenario(
        name="diurnal-load",
        description="squeeze windows tracing a diurnal load curve on a "
                    "chain backbone; jitter storm at the peak",
        topology=TopologySpec(family="chain", params={"count": 4},
                              link={"capacity_bps": 5e7, "delay": 0.002}),
        dif_depth=1,
        workloads=[
            WorkloadSpec(kind="echo", client="n0", server="n3",
                         period=0.05, count=150, size=200, start=1.0),
            WorkloadSpec(kind="transfer", client="n0", server="n3",
                         bytes=80_000, start=1.0),
            WorkloadSpec(kind="stream", client="n3", server="n0",
                         period=0.04, size=300, start=1.0),
        ],
        faults=[
            FaultSpec(kind="bandwidth-squeeze", target="n1--n2", at=1.5,
                      duration=1.5, rate_bps=8e6),           # morning ramp
            FaultSpec(kind="bandwidth-squeeze", target="n1--n2", at=3.5,
                      duration=2.0, rate_bps=2e6,
                      burst_bytes=6000.0),                   # midday peak
            FaultSpec(kind="jitter-storm", target="n1--n2", at=4.0,
                      duration=1.0, jitter_s=0.004),
            FaultSpec(kind="bandwidth-squeeze", target="n1--n2", at=6.5,
                      duration=1.5, rate_bps=8e6),           # evening tail
        ],
        duration=10.0)


def rolling_degradation() -> Scenario:
    """Regional trouble rolling around a backbone ring: each backbone
    link in turn degrades (loss + delay ramp) with a jitter storm on
    top, while cross-region probes keep running — sub-threshold trouble
    moving through the plant, never a clean outage."""
    degrade_windows = [("s0--s1", 1.5), ("s1--s2", 3.5), ("s2--s0", 5.5)]
    return Scenario(
        name="rolling-degradation",
        description="loss/delay/jitter degradation rolling across the "
                    "backbone ring, region by region",
        topology=TopologySpec(family="ring_of_stars",
                              params={"regions": 3, "hosts": 2},
                              link={"capacity_bps": 5e7, "delay": 0.002}),
        dif_depth=1,
        workloads=[
            WorkloadSpec(kind="echo", client="s0_h0", server="s1_h0",
                         period=0.05, count=140, size=200, start=1.0),
            WorkloadSpec(kind="echo", client="s1_h1", server="s2_h1",
                         period=0.05, count=140, size=200, start=1.0),
            WorkloadSpec(kind="transfer", client="s0_h1", server="s2_h0",
                         bytes=40_000, start=1.0),
        ],
        faults=[spec
                for target, at in degrade_windows
                for spec in (
                    FaultSpec(kind="link-degrade", target=target, at=at,
                              duration=1.5, peak_loss=0.3,
                              delay_factor=2.0, steps=3),
                    FaultSpec(kind="jitter-storm", target=target, at=at,
                              duration=1.5, jitter_s=0.005),
                )],
        duration=9.0)


def corruption_storm() -> Scenario:
    """Bit errors and reordering instead of outages: two links flip
    payload bytes for a while and a third swaps in-flight frames.  Every
    damaged frame must be detected and counted at the receiving stack —
    reliable flows recover by retransmission, never by delivering
    garbage."""
    return Scenario(
        name="corruption-storm",
        description="payload corruption on two grid links + a reorder "
                    "burst on a third; echo + transfer must recover",
        topology=TopologySpec(family="grid",
                              params={"rows": 2, "cols": 3},
                              link={"capacity_bps": 5e7, "delay": 0.002}),
        dif_depth=1,
        workloads=[
            WorkloadSpec(kind="echo", client="g0_0", server="g1_2",
                         period=0.05, count=140, size=200, start=1.0),
            WorkloadSpec(kind="transfer", client="g0_0", server="g1_2",
                         bytes=60_000, start=1.0),
        ],
        faults=[
            FaultSpec(kind="corruption-storm", target="g0_0--g0_1",
                      at=1.5, duration=2.0, corrupt_prob=0.15),
            FaultSpec(kind="corruption-storm", target="g1_1--g1_2",
                      at=3.0, duration=2.0, corrupt_prob=0.1,
                      max_flips=2),
            FaultSpec(kind="reorder-burst", target="g0_1--g0_2", at=2.0,
                      duration=2.5, reorder_prob=0.25, reorder_depth=3),
        ],
        duration=10.0)


CANNED: Dict[str, Callable[[], Scenario]] = {
    "fault-storm": fault_storm,
    "e3-scoped": lambda: e3_scenario("scoped"),
    "e3-e2e": lambda: e3_scenario("e2e"),
    "e4-multihoming": e4_scenario,
    "e5-mobility": e5_scenario,
    "ring-of-stars": ring_of_stars,
    "flash-crowd": flash_crowd,
    "diurnal-load": diurnal_load,
    "rolling-degradation": rolling_degradation,
    "corruption-storm": corruption_storm,
}


def canned(name: str) -> Scenario:
    """Look up a canned spec by name."""
    try:
        return CANNED[name]()
    except KeyError:
        raise KeyError(f"unknown canned scenario {name!r}; "
                       f"known: {', '.join(sorted(CANNED))}")
