"""Integration tests: enrollment, adjacency, and departure (§5.1/§5.2).

These run the real protocol over simulated links — two or three systems,
shims, and a DIF — rather than mocking pieces.
"""

import pytest

from repro.core import (ChallengeResponse, Dif, DifPolicies, NoAuth,
                        Orchestrator, PresharedKey, add_shims, build_dif_over,
                        make_systems, run_until, shim_between, shim_name_for)
from repro.core.names import Address
from repro.sim.link import UniformLoss
from repro.sim.network import Network


def two_systems(seed=1, loss=0.0):
    network = Network(seed=seed)
    network.add_node("a")
    network.add_node("b")
    network.connect("a", "b", loss=UniformLoss(loss) if loss else None)
    systems = make_systems(network)
    add_shims(systems, network)
    return network, systems


class TestBootstrapAndJoin:
    def test_bootstrap_assigns_first_address(self):
        network, systems = two_systems()
        dif = Dif("d")
        ipcp = systems["a"].create_ipcp(dif)
        address = ipcp.bootstrap()
        assert ipcp.enrolled
        assert dif.members() == {address: ipcp}

    def test_join_assigns_address_and_adjacency(self):
        network, systems = two_systems()
        dif = Dif("d")
        a_ipcp = systems["a"].create_ipcp(dif)
        a_ipcp.bootstrap()
        systems["a"].publish_ipcp("d", shim_between(network, "a", "b"))
        b_ipcp = systems["b"].create_ipcp(dif)
        outcomes = []
        systems["b"].enroll("d", a_ipcp.name, shim_between(network, "a", "b"),
                            done=lambda ok, reason: outcomes.append((ok, reason)))
        run_until(network, lambda: outcomes, timeout=20)
        assert outcomes[0][0]
        assert b_ipcp.enrolled
        assert dif.member_count() == 2
        # both sides see the adjacency
        assert a_ipcp.rmt.neighbors() == [b_ipcp.address]
        assert b_ipcp.rmt.neighbors() == [a_ipcp.address]

    def test_lsdb_and_directory_synced_to_joiner(self):
        network, systems = two_systems()
        dif = Dif("d")
        a_ipcp = systems["a"].create_ipcp(dif)
        a_ipcp.bootstrap()
        from repro.core.names import ApplicationName
        a_ipcp.register_local_app(ApplicationName("pre-existing"),
                                  lambda f: None)
        systems["a"].publish_ipcp("d", shim_between(network, "a", "b"))
        b_ipcp = systems["b"].create_ipcp(dif)
        outcomes = []
        systems["b"].enroll("d", a_ipcp.name, shim_between(network, "a", "b"),
                            done=lambda ok, r: outcomes.append(ok))
        run_until(network, lambda: outcomes, timeout=20)
        assert (b_ipcp.directory.lookup(ApplicationName("pre-existing"))
                == a_ipcp.address)

    def test_enrollment_survives_lossy_medium(self):
        network, systems = two_systems(loss=0.25)
        dif = Dif("d", DifPolicies(mgmt_timeout=0.5, enroll_attempts=8))
        a_ipcp = systems["a"].create_ipcp(dif)
        a_ipcp.bootstrap()
        systems["a"].publish_ipcp("d", shim_between(network, "a", "b"))
        systems["b"].create_ipcp(dif)
        outcomes = []
        systems["b"].enroll("d", a_ipcp.name, shim_between(network, "a", "b"),
                            done=lambda ok, r: outcomes.append((ok, r)))
        run_until(network, lambda: outcomes, timeout=60)
        assert outcomes[0][0], outcomes
        assert dif.member_count() == 2


class TestAuthentication:
    def _try_join(self, member_auth, joiner_auth, seed=1):
        network, systems = two_systems(seed=seed)
        member_dif = Dif("d", DifPolicies(auth=member_auth))
        a_ipcp = systems["a"].create_ipcp(member_dif)
        a_ipcp.bootstrap()
        systems["a"].publish_ipcp("d", shim_between(network, "a", "b"))
        joiner_dif = Dif("d", DifPolicies(auth=joiner_auth))
        systems["b"].create_ipcp(joiner_dif)
        outcomes = []
        systems["b"].enroll("d", a_ipcp.name, shim_between(network, "a", "b"),
                            done=lambda ok, r: outcomes.append((ok, r)))
        run_until(network, lambda: outcomes, timeout=30)
        return member_dif, outcomes[0]

    def test_psk_match_accepted(self):
        dif, (ok, _r) = self._try_join(PresharedKey("k"), PresharedKey("k"))
        assert ok and dif.enrollments_accepted == 1

    def test_psk_mismatch_denied(self):
        dif, (ok, reason) = self._try_join(PresharedKey("k"),
                                           PresharedKey("wrong"))
        assert not ok and reason == "auth-denied"
        assert dif.enrollments_denied == 1
        assert dif.member_count() == 1

    def test_challenge_response_match_accepted(self):
        dif, (ok, _r) = self._try_join(ChallengeResponse("s"),
                                       ChallengeResponse("s"))
        assert ok

    def test_challenge_response_mismatch_denied(self):
        _dif, (ok, reason) = self._try_join(ChallengeResponse("s"),
                                            ChallengeResponse("oops"))
        assert not ok and reason == "auth-denied"

    def test_wrong_dif_name_denied(self):
        network, systems = two_systems()
        real = Dif("real")
        a_ipcp = systems["a"].create_ipcp(real)
        a_ipcp.bootstrap()
        systems["a"].publish_ipcp("real", shim_between(network, "a", "b"))
        imposter = Dif("imposter")
        systems["b"].create_ipcp(imposter)
        # b asks a's IPCP (member of "real") to enroll it into "imposter"
        outcomes = []
        systems["b"].enroll("imposter", a_ipcp.name,
                            shim_between(network, "a", "b"),
                            done=lambda ok, r: outcomes.append((ok, r)))
        run_until(network, lambda: outcomes, timeout=30)
        assert not outcomes[0][0]


class TestMultipleAttachments:
    def test_parallel_links_become_two_ports(self):
        network = Network(seed=1)
        network.add_node("a")
        network.add_node("b")
        network.connect("a", "b", name="l#1")
        network.connect("a", "b", name="l#2")
        systems = make_systems(network)
        add_shims(systems, network)
        dif = Dif("d")
        orchestrator = Orchestrator(network)
        build_dif_over(orchestrator, dif, systems, adjacencies=[
            ("a", "b", shim_name_for("l#1")),
            ("a", "b", shim_name_for("l#2"))])
        orchestrator.run(timeout=30)
        a_ipcp = systems["a"].ipcp("d")
        b_addr = systems["b"].ipcp("d").address
        assert len(a_ipcp.rmt.ports_to(b_addr)) == 2


class TestDeparture:
    def test_leave_withdraws_member_everywhere(self):
        network = Network(seed=1)
        for name in ("a", "b", "c"):
            network.add_node(name)
        network.connect("a", "b")
        network.connect("b", "c")
        systems = make_systems(network)
        add_shims(systems, network)
        dif = Dif("d", DifPolicies(keepalive_interval=0.2))
        orchestrator = Orchestrator(network)
        build_dif_over(orchestrator, dif, systems, adjacencies=[
            ("a", "b", shim_between(network, "a", "b")),
            ("b", "c", shim_between(network, "b", "c"))])
        orchestrator.run(timeout=30)
        c_ipcp = systems["c"].ipcp("d")
        c_addr = c_ipcp.address
        a_ipcp = systems["a"].ipcp("d")
        run_until(network, lambda: a_ipcp.routing.next_hop(c_addr) is not None,
                  timeout=10)
        c_ipcp.leave()
        network.run(until=network.engine.now + 3.0)
        assert dif.member_count() == 2
        assert not c_ipcp.enrolled
        assert a_ipcp.routing.next_hop(c_addr) is None


class TestBulkSyncSize:
    def test_preset_reply_size_equals_the_full_walk(self, monkeypatch):
        """The enrolment reply charges its LSDB from the per-LSA size
        caches; wire size sets serialization time, so the shortcut must
        give exactly what walking the whole reply gives."""
        from repro.core.enrollment import AUTH_OBJ
        from repro.core.ipcp import Ipcp
        from repro.core.riep import RiepMessage
        from repro.experiments.e6_scalability import build_stack
        replies = []
        send = Ipcp.send_mgmt_on_port

        def recording(self, port_id, message):
            if message.obj == AUTH_OBJ and message.opcode == "M_START_R":
                replies.append((message, message._size_cache))
            return send(self, port_id, message)

        monkeypatch.setattr(Ipcp, "send_mgmt_on_port", recording)
        build_stack("flat", 3, 3, seed=0)
        assert len(replies) == 12
        assert max(len(m.value["lsdb"]) for m, _size in replies) >= 10
        for message, preset in replies:
            walked = RiepMessage(message.opcode, obj=message.obj,
                                 value=message.value,
                                 invoke_id=message.invoke_id)
            assert preset is not None
            assert preset == walked.estimate_size()
