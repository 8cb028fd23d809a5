"""Scenario harness: declarative specs, fault injectors, dual-stack runner.

The paper's central claim is that one recursive IPC architecture handles
renumbering, multihoming, mobility, and security as ordinary layer
operations.  This package turns testing that claim into composition
instead of scripting:

* :mod:`~repro.scenarios.spec` — the declarative :class:`Scenario` form
  (topology family × DIF stack × workload mix × fault schedule);
* :mod:`~repro.scenarios.faults` — pluggable engine-scheduled injectors
  (link flap, degradation ramps, node crash with re-enrollment,
  partition/heal, congestion burst);
* :mod:`~repro.scenarios.runner` — executes a spec on the recursive-IPC
  stack *and* the IP baseline, emitting the standard metric dict plus a
  byte-stable trace for determinism checks;
* :mod:`~repro.scenarios.generate` — seeded sampling of valid specs for
  fuzz-style sweeps;
* :mod:`~repro.scenarios.canned` — named specs, including the E3/E4/E5
  experiment stacks re-expressed declaratively.
"""

from .canned import (CANNED, canned, corruption_storm, diurnal_load,
                     e3_scenario, e4_scenario, e5_scenario, fault_storm,
                     flash_crowd, ring_of_stars, rolling_degradation)
from .faults import (INJECTORS, BandwidthSqueeze, CongestionBurst,
                     CorruptionStorm, FaultContext, FaultInjector,
                     JitterStorm, LinkDegrade, LinkFlap, NodeCrash,
                     Partition, ReorderBurst, make_injector)
from .generate import generate_scenario, generate_specs
from .runner import (RinaStack, ScenarioRunner, build_rina_stack,
                     build_topology, determinism_jobs, run_determinism_row)
from .spec import (FAULT_KINDS, SHIM, TOPOLOGY_FAMILIES, WORKLOAD_KINDS,
                   FaultSpec, LayerSpec, LinkSpec, Scenario, SpecError,
                   TopologySpec, WorkloadSpec, auto_layers)

__all__ = [
    "Scenario", "TopologySpec", "LinkSpec", "LayerSpec", "WorkloadSpec",
    "FaultSpec", "SpecError", "auto_layers",
    "SHIM", "TOPOLOGY_FAMILIES", "WORKLOAD_KINDS", "FAULT_KINDS",
    "FaultContext", "FaultInjector", "LinkFlap", "LinkDegrade", "NodeCrash",
    "Partition", "CongestionBurst", "JitterStorm", "BandwidthSqueeze",
    "CorruptionStorm", "ReorderBurst", "INJECTORS", "make_injector",
    "ScenarioRunner", "RinaStack", "build_rina_stack", "build_topology",
    "run_determinism_row", "determinism_jobs",
    "generate_scenario", "generate_specs",
    "CANNED", "canned", "fault_storm", "e3_scenario", "e4_scenario",
    "e5_scenario", "ring_of_stars", "flash_crowd", "diurnal_load",
    "rolling_degradation", "corruption_storm",
]
