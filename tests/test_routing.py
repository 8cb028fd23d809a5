"""Unit tests for link-state routing inside a DIF."""

import copy
import hashlib
import gc
import random
import weakref
from heapq import heappop, heappush

import pytest

from repro.core import codec, routing
from repro.core.names import Address
from repro.core.pdu import ManagementPdu
from repro.core.riep import M_WRITE, RiepMessage
from repro.core.routing import LSA_OBJ, LinkStateRouting, Lsa
from repro.sim.engine import Engine


class FloodBus:
    """Connects several routing tasks the way adjacent IPCPs would be."""

    def __init__(self, engine):
        self.engine = engine
        self.tasks = {}       # Address -> LinkStateRouting
        self.edges = set()    # frozenset({a, b})
        self.messages = 0

    def add(self, address, task):
        self.tasks[address] = task

    def link(self, a, b):
        self.edges.add(frozenset((a, b)))

    def unlink(self, a, b):
        self.edges.discard(frozenset((a, b)))

    def flood_fn(self, origin):
        def flood(message, exclude):
            count = 0
            for edge in list(self.edges):
                if origin not in edge:
                    continue
                peer = next(iter(edge - {origin}))
                if exclude is not None and peer == exclude:
                    continue
                self.messages += 1
                count += 1
                value = message.value
                self.engine.call_later(
                    0.001, lambda p=peer, v=value, o=origin:
                    self.tasks[p].handle_lsa(
                        RiepMessage(M_WRITE, obj=LSA_OBJ, value=v), o))
            return count
        return flood


def build_topology(edges, spf_delay=0.005):
    """edges: list of (int, int) pairs; returns (engine, {addr: task})."""
    engine = Engine()
    bus = FloodBus(engine)
    addresses = sorted({a for e in edges for a in e})
    tasks = {}
    for value in addresses:
        address = Address(value)
        task = LinkStateRouting(engine, lambda a=address: a,
                                bus.flood_fn(address), spf_delay=spf_delay)
        tasks[value] = task
        bus.add(address, task)
    for a, b in edges:
        bus.link(Address(a), Address(b))
        tasks[a].neighbor_up(Address(b))
        tasks[b].neighbor_up(Address(a))
    engine.run(until=5.0)
    return engine, bus, tasks


class TestLsaEncoding:
    def test_roundtrip(self):
        lsa = Lsa(Address(1), 3, {Address(2): 1.0, Address(3): 2.5})
        decoded = Lsa.from_value(lsa.to_value())
        assert decoded.origin == lsa.origin
        assert decoded.seq == 3
        assert decoded.neighbors == lsa.neighbors


class TestConvergence:
    def test_line_topology_next_hops(self):
        _e, _bus, tasks = build_topology([(1, 2), (2, 3), (3, 4)])
        assert tasks[1].next_hop(Address(4)) == Address(2)
        assert tasks[1].next_hop(Address(2)) == Address(2)
        assert tasks[4].next_hop(Address(1)) == Address(3)

    def test_all_pairs_reachable(self):
        _e, _bus, tasks = build_topology([(1, 2), (2, 3), (3, 4), (4, 1)])
        for source, task in tasks.items():
            others = {Address(v) for v in tasks if v != source}
            assert task.reachable() == others

    def test_shortest_path_chosen_over_longer(self):
        # square with diagonal: 1-2, 2-3, 3-4, 4-1, 1-3
        _e, _bus, tasks = build_topology([(1, 2), (2, 3), (3, 4), (4, 1),
                                          (1, 3)])
        assert tasks[1].next_hop(Address(3)) == Address(3)

    def test_costs_respected(self):
        engine = Engine()
        bus = FloodBus(engine)
        tasks = {}
        for value in (1, 2, 3):
            address = Address(value)
            task = LinkStateRouting(engine, lambda a=address: a,
                                    bus.flood_fn(address), spf_delay=0.005)
            tasks[value] = task
            bus.add(address, task)
        # 1-3 direct cost 10; 1-2-3 cost 2
        for a, b, cost in ((1, 3, 10.0), (1, 2, 1.0), (2, 3, 1.0)):
            bus.link(Address(a), Address(b))
            tasks[a].neighbor_up(Address(b), cost)
            tasks[b].neighbor_up(Address(a), cost)
        engine.run(until=5.0)
        assert tasks[1].next_hop(Address(3)) == Address(2)

    def test_table_size_metric(self):
        _e, _bus, tasks = build_topology([(1, 2), (2, 3)])
        assert tasks[2].table_size() == 2

    def test_failure_reroutes(self):
        engine, bus, tasks = build_topology([(1, 2), (2, 3), (3, 4), (4, 1)])
        assert tasks[1].next_hop(Address(2)) == Address(2)
        bus.unlink(Address(1), Address(2))
        tasks[1].neighbor_down(Address(2))
        tasks[2].neighbor_down(Address(1))
        engine.run(until=10.0)
        assert tasks[1].next_hop(Address(2)) == Address(4)

    def test_partition_empties_reachability(self):
        engine, bus, tasks = build_topology([(1, 2)])
        bus.unlink(Address(1), Address(2))
        tasks[1].neighbor_down(Address(2))
        tasks[2].neighbor_down(Address(1))
        engine.run(until=10.0)
        assert tasks[1].reachable() == set()


class TestFloodingDiscipline:
    def test_stale_lsa_not_refloded(self):
        engine, bus, tasks = build_topology([(1, 2), (2, 3)])
        before = bus.messages
        stale = Lsa(Address(1), 1, {Address(2): 1.0})
        tasks[3].handle_lsa(RiepMessage(M_WRITE, obj=LSA_OBJ,
                                        value=stale.to_value()), Address(2))
        engine.run(until=6.0)
        assert bus.messages == before

    def test_newer_lsa_refloded(self):
        engine, bus, tasks = build_topology([(1, 2), (2, 3)])
        before = bus.messages
        fresh = Lsa(Address(1), 99, {Address(2): 1.0})
        tasks[2].handle_lsa(RiepMessage(M_WRITE, obj=LSA_OBJ,
                                        value=fresh.to_value()), Address(1))
        engine.run(until=6.0)
        assert bus.messages > before

    def test_two_way_check_requires_both_claims(self):
        engine = Engine()
        task = LinkStateRouting(engine, lambda: Address(1),
                                lambda m, e: 0, spf_delay=0.001)
        task.neighbor_up(Address(2))
        # Address(2) never claims 1 back: no usable edge
        one_way = Lsa(Address(2), 1, {Address(3): 1.0})
        task.handle_lsa(RiepMessage(M_WRITE, obj=LSA_OBJ,
                                    value=one_way.to_value()), Address(2))
        engine.run(until=1.0)
        assert task.next_hop(Address(2)) is None
        # now 2 claims 1: edge usable
        two_way = Lsa(Address(2), 2, {Address(1): 1.0})
        task.handle_lsa(RiepMessage(M_WRITE, obj=LSA_OBJ,
                                    value=two_way.to_value()), Address(2))
        engine.run(until=2.0)
        assert task.next_hop(Address(2)) == Address(2)


class TestSync:
    def test_snapshot_load_between_tasks(self):
        _e, _bus, tasks = build_topology([(1, 2), (2, 3)])
        engine = Engine()
        newcomer = LinkStateRouting(engine, lambda: Address(9),
                                    lambda m, e: 0, spf_delay=0.001)
        newcomer.load_lsdb(tasks[2].sync_lsdb())
        assert newcomer.lsdb_size() == tasks[2].lsdb_size()

    def test_load_keeps_newer_local_copies(self):
        engine = Engine()
        task = LinkStateRouting(engine, lambda: Address(9),
                                lambda m, e: 0, spf_delay=0.001)
        newer = Lsa(Address(1), 5, {Address(2): 1.0})
        task.handle_lsa(RiepMessage(M_WRITE, obj=LSA_OBJ,
                                    value=newer.to_value()), Address(1))
        task.load_lsdb([Lsa(Address(1), 2, {}).to_value()])
        # the seq-5 copy must survive
        snapshot = task.sync_lsdb()
        entry = [v for v in snapshot if tuple(v["origin"]) == (1,)][0]
        assert entry["seq"] == 5

    @staticmethod
    def listener(floods=None):
        """A member at address 9 that records what it re-floods."""
        flood = (lambda m, e: 0) if floods is None \
            else (lambda m, e: floods.append(m) or 1)
        return LinkStateRouting(Engine(), lambda: Address(9), flood,
                                spf_delay=0.001)

    @staticmethod
    def hear(task, lsa):
        task.handle_lsa(RiepMessage(M_WRITE, obj=LSA_OBJ,
                                    value=lsa.to_value()), Address(7))

    def test_snapshot_is_sorted_by_origin_not_by_arrival(self):
        # sync_lsdb() order feeds the RIB fingerprints
        task = self.listener()
        for parts in [(2, 1), (1, 9), (1, 2)]:
            self.hear(task, Lsa(Address(*parts), 1, {}))
        assert [tuple(v["origin"]) for v in task.sync_lsdb()] == \
            [(1, 2), (1, 9), (2, 1)]

    def test_higher_seq_replaces_and_lower_seq_is_dropped_unflooded(self):
        floods = []
        task = self.listener(floods)
        self.hear(task, Lsa(Address(1), 3, {Address(2): 1.0}))
        self.hear(task, Lsa(Address(1), 4, {Address(3): 1.0}))
        assert task.lsdb_size() == 1
        assert len(floods) == task.lsas_reflooded == 2
        stored = task.sync_lsdb()
        assert stored == [Lsa(Address(1), 4, {Address(3): 1.0}).to_value()]
        self.hear(task, Lsa(Address(1), 2, {}))                  # stale
        self.hear(task, Lsa(Address(1), 4, {Address(5): 1.0}))   # duplicate seq
        assert task.lsas_received == 4
        assert len(floods) == task.lsas_reflooded == 2
        assert task.sync_lsdb() == stored

    def test_reset_empties_the_lsdb(self):
        task = self.listener()
        task.neighbor_up(Address(2))
        self.hear(task, Lsa(Address(2), 1, {Address(9): 1.0}))
        assert task.lsdb_size() == 2
        task.reset()
        assert task.lsdb_size() == 0
        assert task.sync_lsdb() == []

    def test_refresh_bumps_sequence(self):
        engine = Engine()
        floods = []
        task = LinkStateRouting(engine, lambda: Address(1),
                                lambda m, e: floods.append(m) or 1,
                                spf_delay=0.001)
        task.neighbor_up(Address(2))
        task.refresh()
        seqs = [m.value["seq"] for m in floods]
        assert seqs == [1, 2]


class TestSpfScheduling:
    def test_spf_batches_floods(self):
        # three adjacency changes inside one hold-down window cost one
        # Dijkstra, billed to the first table query after the timer fires
        engine = Engine()
        task = LinkStateRouting(engine, lambda: Address(1),
                                lambda m, e: 0, spf_delay=0.1)
        task.neighbor_up(Address(2))
        task.neighbor_up(Address(3))
        task.neighbor_up(Address(4))
        engine.run(until=1.0)
        task.table()
        assert task.spf_runs == 1
        task.table()
        task.next_hop(Address(2))
        assert task.spf_runs == 1     # further queries stay free

    def test_force_spf_runs_immediately(self):
        engine = Engine()
        task = LinkStateRouting(engine, lambda: Address(1),
                                lambda m, e: 0, spf_delay=10.0)
        task.neighbor_up(Address(2))
        task.force_spf()
        assert task.spf_runs == 1

    def test_unenrolled_task_does_not_originate(self):
        engine = Engine()
        floods = []
        task = LinkStateRouting(engine, lambda: None,
                                lambda m, e: floods.append(m) or 1)
        task.neighbor_up(Address(2))
        assert floods == []


class TestCounterRename:
    def test_deprecated_refloded_alias_removed(self):
        engine, _bus, tasks = build_topology([(1, 2), (2, 3)])
        task = tasks[2]
        assert task.lsas_reflooded > 0
        # the deprecated misspelling is gone for good
        assert not hasattr(task, "lsas_refloded")


class TestIncrementalSpf:
    def test_seq_only_refresh_skips_dijkstra(self):
        engine, _bus, tasks = build_topology([(1, 2), (2, 3)])
        task = tasks[3]
        table_before = task.table()
        runs_before = task.spf_runs
        # a pure sequence refresh: same neighbors, bumped seq
        refreshed = Lsa(Address(1), 99, {Address(2): 1.0})
        task.handle_lsa(RiepMessage(M_WRITE, obj=LSA_OBJ,
                                    value=refreshed.to_value()), Address(2))
        engine.run(until=engine.now + 5.0)
        assert task.table() == table_before
        assert task.spf_runs == runs_before          # Dijkstra elided
        assert task.spf_skipped >= 1

    def test_edge_change_still_recomputes(self):
        engine, bus, tasks = build_topology([(1, 2), (2, 3), (3, 4), (4, 1)])
        task = tasks[1]
        assert task.next_hop(Address(2)) == Address(2)
        runs_before = task.spf_runs
        bus.unlink(Address(1), Address(2))
        tasks[1].neighbor_down(Address(2))
        tasks[2].neighbor_down(Address(1))
        engine.run(until=engine.now + 10.0)
        assert task.next_hop(Address(2)) == Address(4)
        assert task.spf_runs > runs_before

    def test_spf_is_lazy_until_queried(self):
        engine = Engine()
        task = LinkStateRouting(engine, lambda: Address(1),
                                lambda m, e: 0, spf_delay=0.01)
        task.neighbor_up(Address(2))
        claim = Lsa(Address(2), 1, {Address(1): 1.0})
        task.handle_lsa(RiepMessage(M_WRITE, obj=LSA_OBJ,
                                    value=claim.to_value()), Address(2))
        engine.run(until=1.0)
        assert task.spf_runs == 0                    # nobody asked yet
        assert task.next_hop(Address(2)) == Address(2)
        assert task.spf_runs == 1                    # billed to the query


# ----------------------------------------------------------------------
# One LSA, one object: the sharing contract of Lsa.from_value
# ----------------------------------------------------------------------
@pytest.fixture
def lsa_census(monkeypatch):
    """Counts what the routing code builds: ``made`` holds every ``Lsa``
    that ``from_value`` had to construct (as opposed to finding it in the
    memo), ``originated`` every ``Lsa(...)`` built from live state."""
    census = {"made": [], "originated": 0}
    decode = Lsa.from_value.__func__
    init = Lsa.__init__

    def from_value(cls, value):
        known = routing._DECODED.get(id(value))
        lsa = decode(cls, value)
        if lsa is not known:
            census["made"].append(lsa)
        return lsa

    def counted_init(self, origin, seq, neighbors):
        census["originated"] += 1
        init(self, origin, seq, neighbors)

    monkeypatch.setattr(Lsa, "from_value", classmethod(from_value))
    monkeypatch.setattr(Lsa, "__init__", counted_init)
    return census


def flat_members(regions, hosts, seed=0):
    from repro.experiments.e6_scalability import build_stack
    network, _systems, difs = build_stack("flat", regions, hosts, seed)
    return network, list(difs["flat"].members().values())


class TestOneLsaOneObject:
    def test_to_value_decodes_back_to_the_same_object(self):
        lsa = Lsa(Address(1), 3, {Address(2): 1.0})
        assert Lsa.from_value(lsa.to_value()) is lsa

    def test_every_member_of_a_flat_build_holds_the_same_objects(
            self, lsa_census):
        _network, members = flat_members(3, 3)
        assert len(members) == 13
        for origin in members[0].routing._lsdb:
            holders = {id(m.routing._lsdb[origin]) for m in members}
            assert len(holders) == 1, f"{origin} decoded more than once"
        # the rows SPF reads are the shared LSAs' own: a member holds its
        # LSDB, its live adjacencies and its table, and no second
        # origin -> row index beside them
        for member in members:
            task = member.routing
            held = {name for name in LinkStateRouting.__slots__
                    if isinstance(getattr(task, name, None), dict)}
            assert held == {"_lsdb", "_adjacencies", "_next_hop"}
            for origin, lsa in task._lsdb.items():
                if origin != member.address:
                    shared = members[0].routing._lsdb[origin]
                    assert lsa.neighbors is shared.neighbors
        # in one process nothing crosses a cut: the only decodes are of
        # values still in flight after their originator (the one holder
        # so far) replaced them — a handful against 158 LSAs received
        received = sum(m.routing.lsas_received for m in members)
        assert received > 5 * lsa_census["originated"]
        assert len(lsa_census["made"]) <= lsa_census["originated"] // 4

    def test_equal_origin_and_seq_in_two_dicts_are_two_lsas(self):
        # a recycled address after reset(): same (origin, seq), new content
        first = Lsa(Address(4), 1, {Address(2): 1.0}).to_value()
        second = Lsa(Address(4), 1, {Address(3): 1.0}).to_value()
        a, b = Lsa.from_value(first), Lsa.from_value(second)
        assert a is not b
        assert a.neighbors == {Address(2): 1.0}
        assert b.neighbors == {Address(3): 1.0}
        # and an equal *copy* of a dict is a different dict
        assert Lsa.from_value(dict(first)) is not a

    def test_a_cut_crossing_decodes_once_per_side(self, lsa_census):
        lsa = Lsa(Address(1), 7, {Address(2): 1.0, Address(3): 2.0})
        pdu = ManagementPdu(Address(1), Address(2),
                            RiepMessage(M_WRITE, obj=LSA_OBJ,
                                        value=lsa.to_value()))
        far = codec.decode(codec.encode(pdu)).message
        assert far.value is not lsa.to_value()
        decoded = Lsa.from_value(far.value)
        assert decoded is not lsa and decoded.neighbors == lsa.neighbors
        assert Lsa.from_value(far.value) is decoded
        assert lsa_census["made"] == [decoded]

    def test_sharded_build_decodes_at_most_once_per_frame(self, lsa_census):
        from repro.experiments.e6_scalability import run_stateful_scale
        row = run_stateful_scale(3, 2, shards=2, seed=0, mode="inline")
        assert row["lsas_received"] == 90
        assert 0 < len(lsa_census["made"]) < row["lsas_received"] // 2
        assert len(lsa_census["made"]) <= (lsa_census["originated"]
                                           + row["frames_relayed"])

    def test_two_networks_share_nothing(self):
        net_a, members_a = flat_members(2, 2)
        net_b, members_b = flat_members(2, 2)
        lsas_a = {id(l) for m in members_a for l in m.routing._lsdb.values()}
        lsas_b = {id(l) for m in members_b for l in m.routing._lsdb.values()}
        assert lsas_a and lsas_b and not lsas_a & lsas_b
        # same seed, same plant: equal content in different objects
        assert (members_a[0].routing.sync_lsdb()
                == members_b[0].routing.sync_lsdb())
        # ... unless handed the very same dict
        value = members_a[0].routing.sync_lsdb()[0]
        members_b[0].routing.reset()
        members_b[0].routing.load_lsdb([value])
        stored = members_a[0].routing._lsdb[Address(*value["origin"])]
        assert members_b[0].routing._lsdb[stored.origin] is stored

    def test_memo_empties_with_the_last_network(self):
        gc.collect()
        before = len(routing._DECODED)
        network, members = flat_members(2, 2)
        refs = [weakref.ref(l) for m in members
                for l in m.routing._lsdb.values()]
        assert refs and len(routing._DECODED) > before
        del network, members
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(routing._DECODED) <= before

    def test_nobody_writes_to_a_shared_row(self, monkeypatch):
        from repro.scenarios import ScenarioRunner, canned
        # (member, row) -> (the row as the member installed it, a copy
        # taken then); holding the row keeps its id unique
        installed = {}

        def recording(method):
            def installs(self, *args):
                method(self, *args)
                for lsa in self._lsdb.values():
                    key = (id(self), id(lsa.neighbors))
                    if key not in installed:
                        installed[key] = (lsa.neighbors,
                                          copy.deepcopy(lsa.neighbors))
            return installs

        for name in ("handle_lsa", "load_lsdb", "_originate"):
            monkeypatch.setattr(LinkStateRouting, name,
                                recording(getattr(LinkStateRouting, name)))
        runner = ScenarioRunner(canned("fault-storm"), seed=7)
        runner.run("rina")
        tracer = runner.network.tracer
        assert tracer.counter_value("ipcp.crash") == 1
        assert tracer.events("fault.reenrolled")
        stored = list(installed.values())
        assert len(stored) > 50
        assert all(row == snapshot for row, snapshot in stored)
        # every live LSA still says what its wire value said
        for lsa in list(routing._DECODED.values()):
            assert sorted(lsa.neighbors.items()) == [
                (Address(*parts), cost)
                for parts, cost in lsa.to_value()["neighbors"]]


# ----------------------------------------------------------------------
# Dijkstra over the LSDB rows == Dijkstra over the explicit two-way graph
# ----------------------------------------------------------------------
def two_way_graph(claims):
    """The graph the routing task used to maintain edge by edge: an edge
    exists when both ends claim each other, at the larger claimed cost."""
    graph = {}
    for a, row in claims.items():
        for b, cost in row.items():
            back = claims.get(b, {}).get(a)
            if back is not None:
                graph.setdefault(a, {})[b] = max(cost, back)
    return graph


def reference_next_hops(source, graph):
    dist = {source: 0.0}
    first_hop = {source: None}
    heap = [(0.0, source.parts, source)]
    done = set()
    while heap:
        d, _tie, node = heappop(heap)
        if node in done:
            continue
        done.add(node)
        for neighbor, cost in graph.get(node, {}).items():
            nd = d + cost
            if neighbor not in dist or nd < dist[neighbor] - 1e-12:
                dist[neighbor] = nd
                first_hop[neighbor] = (neighbor if node == source
                                       else first_hop[node])
                heappush(heap, (nd, neighbor.parts, neighbor))
    return {dst: hop for dst, hop in first_hop.items() if hop is not None}


def random_claims(rng):
    nodes = [Address(region, host) for region in range(1, 4)
             for host in range(1, rng.randint(2, 5))]
    costs = (1.0, 1.0, 2.0, 2.5, 7.0)
    claims = {node: {} for node in nodes}
    for a in nodes:
        for b in nodes:
            if a < b and rng.random() < 0.3:
                kind = rng.random()
                if kind < 0.6:                       # two-way, equal cost
                    claims[a][b] = claims[b][a] = rng.choice(costs)
                elif kind < 0.8:                     # asymmetric costs
                    claims[a][b] = rng.choice(costs)
                    claims[b][a] = rng.choice(costs)
                elif kind < 0.9:                     # one-sided claims
                    claims[a][b] = rng.choice(costs)
                else:
                    claims[b][a] = rng.choice(costs)
    for node in rng.sample(nodes, len(nodes) // 4):
        claims[node] = {}                            # withdrawn origin
    return nodes, claims


class TestGraphFreeDijkstra:
    @pytest.mark.parametrize("seed", range(200))
    def test_next_hops_equal_the_explicit_graph_reference(self, seed):
        rng = random.Random(seed)
        nodes, claims = random_claims(rng)
        source = rng.choice(nodes)
        task = LinkStateRouting(Engine(), lambda: source, lambda m, e: 0)
        for neighbor, cost in claims[source].items():
            task._adjacencies[neighbor] = cost
        origins = [node for node in nodes if node != source]
        rng.shuffle(origins)                         # rows in any order
        seqs = dict.fromkeys(origins, 0)
        for origin in origins + rng.sample(origins, len(origins) // 2):
            # the repeats re-install a row after a withdrawal in between
            seqs[origin] += 2
            for row in ({}, claims[origin]):
                items = list(row.items())
                rng.shuffle(items)
                seq = seqs[origin] + (1 if row else 0)
                task.load_lsdb([Lsa(origin, seq, dict(items)).to_value()])
        task.force_spf()
        assert task.table() == reference_next_hops(
            source, two_way_graph(claims))
        assert task.reachable() <= set(nodes) - {source}

    def test_the_per_member_graph_is_gone(self):
        task = LinkStateRouting(Engine(), lambda: Address(1), lambda m, e: 0)
        assert not hasattr(task, "_graph")
        assert not hasattr(task, "_refresh_edge")


#: (flat, recursive) engine events of the 10x20 plants at seed 0; they
#: were (111,985, 26,143) before flooded copies were acked once per port
#: after a delay, and (75,619, 23,525) before FIFO RMT ports stopped
#: pacing (the ``rmt.serve`` events went).
SCOPE_EVENTS = (75_379, 23_284)


class TestScopePin:
    """ROADMAP 4(d), §6.5: the same 211 systems as one flat DIF and as
    region DIFs under a backbone.  Exact counters, no wall clock — the
    ratio cannot move without this failing."""

    def test_flat_against_recursive_10x20(self):
        from repro.experiments.e6_scalability import run_scale
        flat = run_scale("flat", 10, 20, seed=0)
        recursive = run_scale("recursive", 10, 20, seed=0)
        assert (flat["lsas_reflooded"], flat["mean_table"]) == \
            (44_948, 210.0)
        assert (recursive["lsas_reflooded"], recursive["mean_table"]) == \
            (4_381, 20.48)
        assert (flat["spf_runs"], flat["spf_skipped"]) == (211, 0)
        assert flat["flap_update_scope"] == 211
        # the engine's event count is a cost, pinned apart from what the
        # plants say (tests/test_trace_golden.py)
        assert (flat["events"], recursive["events"]) == SCOPE_EVENTS

    def test_flat_5x10_invariants(self):
        # what the flat plant says at the scale tier's small size (seed
        # 1): a change to how flooding is made reliable must not move it
        from repro.experiments.e6_scalability import run_scale
        flat = run_scale("flat", 5, 10)
        assert {key: flat[key] for key in (
            "lsas_reflooded", "mean_table", "spf_runs",
            "flap_update_scope")} == {
            "lsas_reflooded": 3_248, "mean_table": 55.0, "spf_runs": 56,
            "flap_update_scope": 56}


# ----------------------------------------------------------------------
# Per-member SPF bookkeeping through a crash, a re-enrolment and an
# address change
# ----------------------------------------------------------------------
def member_spf_rows(name, seed, monkeypatch):
    """Run a canned spec on the IPC stack and return, for every routing
    task in the order they were made: the four counters at the end of the
    run, a SHA-256 of the next-hop table a query then reads, and
    ``(spf_runs, spf_skipped)`` after that query."""
    from repro.scenarios import ScenarioRunner, canned
    made = []
    init = LinkStateRouting.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(LinkStateRouting, "__init__", recording)
    ScenarioRunner(canned(name), seed=seed).run("rina")
    rows = []
    for task in made:
        counters = (task.spf_runs, task.spf_skipped, task.lsas_received,
                    task.lsas_reflooded)
        table = repr(sorted((dst.parts, hop.parts)
                            for dst, hop in task.table().items()))
        rows.append((counters, hashlib.sha256(table.encode()).hexdigest()[:16],
                     (task.spf_runs, task.spf_skipped)))
    return rows


class TestSpfBookkeepingPin:
    """Where a member's own row, an empty row, a reset and a changed
    address decide what marks the SPF dirty, each member's counters and
    its next-hop table are pinned exactly."""

    def test_fault_storm_crash_and_reenrol(self, monkeypatch):
        rows = member_spf_rows("fault-storm", 7, monkeypatch)
        assert rows == FAULT_STORM_SPF

    def test_e5_mobility_address_change(self, monkeypatch):
        rows = member_spf_rows("e5-mobility", 7, monkeypatch)
        assert rows == E5_MOBILITY_SPF


#: ``member_spf_rows("fault-storm", 7)``: six members, one of them
#: crashed and re-enrolled.
FAULT_STORM_SPF = [
    ((6, 0, 36, 29), '00d78f5e2b8e4159', (7, 0)),
    ((4, 0, 29, 24), '75ffdd3a16a41ac9', (5, 0)),
    ((1, 0, 40, 27), '78c7097e5924046e', (2, 0)),
    ((4, 0, 29, 25), '92ab01feb5269245', (5, 0)),
    ((1, 0, 38, 16), 'a8b5bf957df67aa8', (2, 0)),
    ((5, 0, 30, 19), '681ac3e57dcf6fb4', (6, 0)),
]

#: ``member_spf_rows("e5-mobility", 7)``: the mobile host leaves its DIFs
#: and enrols again under new addresses.
E5_MOBILITY_SPF = [
    ((2, 0, 5, 5), 'ca723e09c968a7a9', (2, 0)),
    ((3, 0, 7, 7), 'b11eafea1d1ed8b4', (3, 0)),
    ((0, 0, 4, 4), '8656430e53253fc6', (1, 0)),
    ((3, 0, 4, 4), '7efec2bc153d8dd0', (3, 0)),
    ((0, 0, 3, 3), '8398347d5eb66968', (1, 0)),
    ((0, 0, 2, 2), 'ffe802b09fbb9b90', (1, 0)),
    ((0, 0, 1, 1), 'ac3dfe7c6079f4ef', (1, 0)),
    ((2, 0, 7, 7), '903931895a621247', (2, 0)),
    ((2, 0, 8, 8), '804b21375d4ae8d5', (2, 0)),
    ((0, 0, 6, 6), 'ddf5a91edce39087', (1, 0)),
    ((3, 0, 4, 4), 'e1a8acd80b349b82', (3, 0)),
    ((3, 0, 6, 6), '5571a8a57974aa82', (3, 0)),
]


class TestWhatMarksSpfDirty:
    """One task, rows installed by hand: which changes re-run Dijkstra
    at the next query and which let it be skipped."""

    def test_each_kind_of_change(self):
        local = [Address(1)]
        task = LinkStateRouting(Engine(), lambda: local[0], lambda m, e: 0)

        def install(origin, seq, neighbors):
            task.load_lsdb([Lsa(Address(origin), seq, {
                Address(n): 1.0 for n in neighbors}).to_value()])

        def query():
            task.force_spf()
            return task.spf_runs, task.spf_skipped

        task.neighbor_up(Address(2))
        assert query() == (1, 0)              # own adjacency added
        install(2, 1, [1, 3])
        assert query() == (2, 0)              # a new origin's row
        assert task.next_hop(Address(2)) == Address(2)
        install(2, 2, [1, 3])
        assert query() == (2, 1)              # sequence refresh only
        install(3, 1, [])
        assert query() == (3, 1)              # a new origin, empty row
        install(3, 2, [2])
        assert query() == (4, 1)              # its row filled
        assert task.next_hop(Address(3)) == Address(2)
        install(2, 3, [])
        assert query() == (5, 1)              # a row withdrawn
        assert task.table() == {}
        install(2, 4, [1, 3])
        assert query() == (6, 1)              # and installed again
        assert query() == (6, 2)              # nothing changed
        install(1, 9, [7])
        assert query() == (6, 3)              # the own LSA is not read
        task.neighbor_up(Address(2), cost=2.0)
        assert query() == (7, 3)              # own cost changed
        local[0] = Address(4)
        assert query() == (8, 3)              # a new address
        assert task.next_hop(Address(2)) is None
        task.reset()
        task.neighbor_up(Address(2))
        install(2, 5, [4])
        assert query() == (9, 3)              # after a crash
        assert task.table() == {Address(2): Address(2)}

    def test_an_unchanged_empty_row_leaves_the_spf_clean(self):
        # rows are compared as installed, so an empty one is no
        # different: its refresh, like a member's own empty adjacency
        # set queried twice, skips Dijkstra
        local = [Address(1)]
        task = LinkStateRouting(Engine(), lambda: local[0], lambda m, e: 0)
        task.neighbor_up(Address(2))
        for seq in (1, 2):
            task.load_lsdb([Lsa(Address(3), seq, {}).to_value()])
            task.force_spf()
        assert (task.spf_runs, task.spf_skipped) == (1, 1)
        task.neighbor_down(Address(2))
        task.force_spf()
        task.force_spf()
        assert (task.spf_runs, task.spf_skipped) == (2, 2)
        assert task.table() == {}
