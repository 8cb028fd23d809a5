"""Sharded region engines with conservative DIF-boundary lookahead.

One simulated network, partitioned into regions that run on independent
engines (usually independent processes) and exchange timestamped frames
at the cut links.  The paper's recursion argument (§6.5 — scopes bound
state and update traffic) is also what makes the *simulation itself*
partitionable: almost all traffic is intra-region, and the boundary
links' propagation delay is a conservative lookahead that keeps the
parallel execution exact, not approximate.

Two calls run a :class:`NetworkSpec` with a workload of either kind
(:func:`attach_workload`): :func:`run_sharded` cuts it by a
:class:`RegionPlan` and steps the regions in rounds, and
:func:`run_unsharded` builds it whole on one engine, the reference
every sharded run is pinned against.  Both return a
:class:`ShardRunResult`.

See docs/ARCHITECTURE.md for the frame-exchange protocol and the
lookahead rule; `repro.experiments.e6_scalability` wires this into the
E6 scale tier (``repro e6-scale --shards N``).
"""

from .coordinator import (MODES, ShardCoordinator, ShardRunError,
                          ShardRunResult, run_sharded, run_unsharded)
from .engine import (BoundaryFrame, BoundaryHalf, ShardEngine,
                     attach_workload)
from .flood import (all_nodes_announce, attach_flood, flood_workload,
                    sparse_announce)
from .framing import pack_frames, unpack_frames
from .plan import (BoundaryPort, NetworkSpec, RegionPlan, RegionSpec,
                   ShardPlanError)
from .stateful import (StatefulControlPlane, rib_fingerprint,
                       stateful_workload)

__all__ = [
    "BoundaryFrame", "BoundaryHalf", "BoundaryPort", "MODES",
    "NetworkSpec", "RegionPlan", "RegionSpec", "ShardCoordinator",
    "ShardPlanError", "ShardRunError", "ShardRunResult",
    "StatefulControlPlane", "all_nodes_announce",
    "attach_flood", "attach_workload", "flood_workload", "pack_frames",
    "rib_fingerprint", "run_sharded", "run_unsharded", "sparse_announce",
    "stateful_workload", "unpack_frames",
]
