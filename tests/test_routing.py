"""Unit tests for link-state routing inside a DIF."""

from repro.core.names import Address
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
