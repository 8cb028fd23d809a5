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
build budget by itself.  The 100,001-system plant itself is held to a
peak-RSS budget, in an interpreter of its own.
"""

import json
import os
import subprocess
import sys
import tracemalloc

from repro.core.efcp import EfcpConnection, EfcpPolicy
from repro.core.names import Address
from repro.experiments.e6_scalability import (build_flood_spec,
                                              flood_build_smoke)
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
#: (56 members: IPCPs, RIBs, LSDBs, flood-ack lists, forwarding tables).
#: Read 25.6-27.1 KB/member since SPF reads the LSDB rows themselves and
#: a deadline queue is its pending dict; 33.8-33.9 KB with a claim-row
#: index beside the LSDB and a deque beside each pending dict, and
#: 80.1-80.8 KB when every member decoded its own ``Lsa`` and kept a
#: two-way graph.  ~25 % headroom over the current reading.
CONTROL_PLANE_BUDGET = 34_000

#: Peak RSS in MB of a fresh interpreter that builds the 100,001-system
#: flood tier and floods its first announcement.  Read 446 MB (2 vCPU,
#: CPython 3.11.7) since a clean link schedules one event per frame, and
#: 617.4 MB while every link made its two transmit deques up front and
#: every flood node a ``set``.  600 MB fails on per-entity creep of that
#: size (eager per-link PRNGs alone were ~250 MB) without flaking on
#: allocator variance.
XLARGE_PEAK_MEM_MB = 600

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


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
        f"{CONTROL_PLANE_BUDGET}; read 27,100 with SPF over the shared "
        f"LSDB rows, 80,800 where every member decoded its own Lsa and "
        f"patched a private two-way graph) — control-plane state is being "
        f"copied per member again")


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


def test_hundred_thousand_system_first_wave_stays_in_budget():
    """Build the xlarge flood plant (sim/ and shard/flood.py only, no
    core/) and run one announcement until every other system heard it.
    Peak RSS is a process's high-water mark, so the plant gets an
    interpreter of its own; ``src/`` goes first on the inherited
    ``PYTHONPATH``, so a ``sitecustomize`` there (tests/census) loads."""
    code = ("import json\n"
            f"from {flood_build_smoke.__module__} import flood_build_smoke\n"
            "print(json.dumps(flood_build_smoke('xlarge')))")
    path = filter(None, [SRC, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    row = json.loads(done.stdout.splitlines()[-1])
    assert row["systems"] == 100_001
    assert row["first_wave_deliveries"] == row["systems"] - 1, row
    assert row["peak_mem_mb"] < XLARGE_PEAK_MEM_MB, row
