"""Memory-footprint regression tests for the engine core.

The 100k-system tier exists because per-member state is slotted and
lazily allocated; these tests pin that win with ``tracemalloc`` so
future object-graph creep (an unslotted hot class re-growing
``__dict__``s, a per-link PRNG materialized eagerly, a dict-tree RIB)
fails CI instead of silently shrinking the reachable plant size.

Budgets are peak *traced* bytes per member on a fixed plant —
deterministic modulo interpreter version, so they carry generous but
regression-sized headroom: the pre-refactor layout (eager ~2.5 KB
Mersenne state per link, instance dicts on links/nodes/ends) blows the
build budget by itself.
"""

import tracemalloc

from repro.core.efcp import EfcpConnection, EfcpPolicy
from repro.core.names import Address
from repro.experiments.e6_scalability import build_flood_spec
from repro.shard import all_nodes_announce, attach_flood
from repro.sim.engine import Engine

#: The fixed plant: the medium E6 flood tier (10 regions x 20 hosts).
REGIONS, HOSTS = 10, 20
MEMBERS = 1 + REGIONS * (1 + HOSTS)

#: Peak traced bytes per member for the *built* plant (nodes, links,
#: ends, flood state — no traffic).  Measured 3,946 B/member, with no
#: transmit deque until a frame finds its direction busy; 5,125 when
#: every link made its two deques up front (~1.2 KB per link), and the
#: old layout's eager per-link PRNG alone added ~2.5 KB/member on top.
BUILD_BUDGET = 5_000

#: Peak traced bytes per member across the full every-node flood run.
#: Measured 7,218 B/member since a clean link schedules only each
#: frame's arrival and lets its record go when the frame arrives (8,176,
#: measured alongside, with a serialization-end event per frame; 8,231
#: when first measured); each node keeps its seen flags in one
#: ``bytearray`` and its first deliveries in two ``array``s (29,400 with
#: a ``set`` of payload tuples and a ``(time, origin, seq)`` tuple per
#: delivery).
RUN_BUDGET = 9_000

#: Peak traced bytes per standalone EFCP connection (measured 2,137 B:
#: the slotted object with its twelve protocol scalars, send queue,
#: outstanding/receive maps, two timers and stats).
CONNECTION_BUDGET = 3_500

#: Traced bytes per member held by a *built* flat 5x10 control plane
#: (56 members: IPCPs, RIBs, LSDBs, claim rows, forwarding tables).
#: Read 31.2-31.7 KB/member with one shared ``Lsa`` per origination and
#: no per-member graph; the parent commit (an ``Lsa`` decoded per member,
#: a copied claim row and a two-way graph each) read 80.1-80.8 KB in the
#: same session.  ~25 % headroom, and well under the unshared layout.
CONTROL_PLANE_BUDGET = 40_000


def test_flat_control_plane_stays_in_budget():
    from repro.experiments.e6_scalability import build_stack
    tracemalloc.start()
    try:
        network, _systems, difs = build_stack("flat", 5, 10, seed=1)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    members = difs["flat"].members()
    assert len(members) == 56 and network.engine.events_processed > 0
    per_member = held / len(members)
    assert per_member < CONTROL_PLANE_BUDGET, (
        f"a built flat 5x10 DIF holds {per_member:.0f} B/member (budget "
        f"{CONTROL_PLANE_BUDGET}; read 31,700 with shared LSAs, 80,800 at "
        f"the parent of PR 23 where every member decoded its own Lsa and "
        f"patched a private two-way graph) — link-state is being copied "
        f"per member again")


def test_flood_plant_build_stays_in_budget():
    spec = build_flood_spec(REGIONS, HOSTS)
    workload = all_nodes_announce(spec.nodes)
    tracemalloc.start()
    try:
        network = spec.build(seed=1)
        attach_flood(network, workload)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(spec.nodes) == MEMBERS
    per_member = peak / MEMBERS
    assert per_member < BUILD_BUDGET, (
        f"built plant costs {per_member:.0f} B/member "
        f"(budget {BUILD_BUDGET}); an engine-core class probably "
        f"regrew an instance dict or an eager per-link allocation")


def test_flood_run_stays_in_budget():
    spec = build_flood_spec(REGIONS, HOSTS)
    workload = all_nodes_announce(spec.nodes)
    tracemalloc.start()
    try:
        network = spec.build(seed=1)
        floods = attach_flood(network, workload)
        network.run()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the workload actually ran: every member heard every other member
    deliveries = sum(len(f.deliveries) for f in floods.values())
    assert deliveries == MEMBERS * (MEMBERS - 1)
    per_member = peak / MEMBERS
    assert per_member < RUN_BUDGET, (
        f"flood run peaks at {per_member:.0f} B/member "
        f"(budget {RUN_BUDGET})")


def test_efcp_connection_stays_in_budget():
    engine = Engine()
    policy = EfcpPolicy()
    count = 1000
    tracemalloc.start()
    try:
        connections = [
            EfcpConnection(engine, Address(1), Address(2), local_cep=i,
                           remote_cep=i + 10_000, policy=policy,
                           output=lambda pdu: None,
                           deliver=lambda payload, size: None)
            for i in range(count)]
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(connections) == count
    assert not hasattr(connections[0], "__dict__")
    assert peak / count < CONNECTION_BUDGET, (
        f"an EFCP connection costs {peak / count:.0f} B "
        f"(budget {CONNECTION_BUDGET})")
