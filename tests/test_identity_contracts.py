"""What every member of a process shares, and what it must keep meaning.

* **An address is an interned tuple.**  ``Address`` subclasses
  ``tuple``, so dict probes hash and compare in C; it hashes and
  compares equal to its plain components, and pickling or copying hands
  back the one interned object.  RIEP values keep carrying *plain*
  tuples (``parts``): the codec writes those as ``'('`` records and the
  size estimator charges them ``2 + 8n``, while an ``Address`` is an
  ``'A'`` record charged as a 32-byte opaque object.  Either mix-up
  would move frame sizes, hence timing, so the bytes are pinned here.
* **A RIB fingerprint renders shared state once.**  The members of a
  stateful plant share one ``Lsa`` object per LSA, and
  ``node_stat_rows`` renders each of them once for all members.  The
  fingerprint must be byte-for-byte today's per-member rendering,
  which is copied below as the reference, at rest and in the middle of
  churn, when members hold different versions of an LSA.
"""

import copy
import hashlib
import pickle

import pytest

from repro.core.codec import decode, encode
from repro.core.names import Address
from repro.core.pdu import DataPdu, ManagementPdu
from repro.core.riep import M_WRITE, RiepMessage, estimate_value_size
from repro.core.routing import LSA_OBJ, Lsa
from repro.experiments.e6_scalability import (build_flood_spec,
                                              build_stateful_workload)
from repro.shard import rib_fingerprint
from repro.shard.stateful import StatefulControlPlane

A = Address(2, 0, 13)
B = Address(7)
C = Address(2, 1)

#: encode() of the LSA flood message below: the origin and every
#: neighbour travel as plain-tuple records ('(' = 0x28), never as 'A'
LSA_MESSAGE_BYTES = bytes.fromhex(
    "b8024d0000000000000040000000000000000103000000000000000200000000"
    "00000000000000000000000d0100000000000000075200000000000000000000"
    "000000000000000000000000008773000000074d5f5752495445730000000c2f"
    "726f7574696e672f6c73617b0000000373000000066f726967696e2800000003"
    "69000000000000000269000000000000000069000000000000000d7300000003"
    "73657169000000000000000573000000096e65696768626f72735b0000000228"
    "0000000228000000026900000000000000026900000000000000016440040000"
    "0000000028000000022800000001690000000000000007643ff0000000000000")

DATA_PDU_BYTES = bytes.fromhex(
    "b80244000000000000004000000000000000080000000000000003000000000000"
    "000400000000000000110000000000000007540300000000000000020000000000"
    "000000000000000000000d01000000000000000762000000077061796c6f6164")


class TestAddressIsAnInternedTuple:
    def test_hashes_and_compares_as_its_components(self):
        assert hash(Address(2, 0, 13)) == hash((2, 0, 13))
        assert Address(2, 0, 13) == (2, 0, 13)
        assert isinstance(A, tuple)
        # a dict keyed by addresses answers a probe by components
        assert {A: "here"}[(2, 0, 13)] == "here"

    def test_one_object_per_address(self):
        assert Address(2, 0, 13) is A
        assert Address(*A.parts) is A

    @pytest.mark.parametrize("protocol",
                             range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_hands_back_the_interned_object(self, protocol):
        assert pickle.loads(pickle.dumps(A, protocol)) is A

    def test_copy_and_deepcopy_hand_back_the_interned_object(self):
        assert copy.copy(A) is A
        assert copy.deepcopy(A) is A
        table = copy.deepcopy({A: [B]})
        assert next(iter(table)) is A and table[A][0] is B

    def test_parts_is_a_plain_tuple_shared_per_address(self):
        assert type(A.parts) is tuple
        assert A.parts == (2, 0, 13)
        assert A.parts is Address(2, 0, 13).parts
        assert type(A[:2]) is tuple

    def test_size_estimate_tells_an_address_from_its_parts(self):
        assert estimate_value_size(Address(1, 2)) == 32
        assert estimate_value_size(Address(1, 2).parts) == 18

    def test_lsa_values_carry_plain_tuples(self):
        value = Lsa(A, 5, {B: 1.0, C: 2.5}).to_value()
        assert type(value["origin"]) is tuple
        assert all(type(parts) is tuple for parts, _cost in
                   value["neighbors"])


class TestWireBytesPinned:
    def test_lsa_flood_message(self):
        lsa = Lsa(A, 5, {B: 1.0, C: 2.5})
        pdu = ManagementPdu(A, B, RiepMessage(M_WRITE, obj=LSA_OBJ,
                                              value=lsa.to_value()))
        assert encode(pdu) == LSA_MESSAGE_BYTES
        assert pdu.wire_size() == 159
        copy_ = decode(LSA_MESSAGE_BYTES)
        assert copy_.src_addr is A and copy_.dst_addr is B
        assert type(copy_.message.value["origin"]) is tuple

    def test_data_pdu(self):
        pdu = DataPdu(A, B, 3, 4, 17, b"payload", 7, drf=True)
        assert encode(pdu) == DATA_PDU_BYTES
        assert pdu.wire_size() == 27


def reference_fingerprint(ipcp) -> str:
    """The per-member renderer as it was before members shared their
    LSA lines: every LSA rendered from its RIEP value, every time."""
    lines = [f"address={ipcp.address}"]
    for dst, hop in sorted(ipcp.routing.table().items()):
        lines.append(f"route {dst}->{hop}")
    for value in ipcp.routing.sync_lsdb():
        neighbors = ",".join(
            f"{'.'.join(str(p) for p in parts)}:{cost!r}"
            for parts, cost in value["neighbors"])
        origin = ".".join(str(p) for p in value["origin"])
        lines.append(f"lsa {origin} seq={value['seq']} nbrs=[{neighbors}]")
    for neighbor in ipcp.rmt.neighbors():
        lines.append(f"neighbor {neighbor}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestSharedFingerprintRendering:
    def assert_fingerprints_match(self, plane):
        rows = {row["node"]: row["rib_sha256"]
                for row in plane.node_stat_rows()}
        assert sorted(rows) == sorted(plane.systems)
        for name, system in plane.systems.items():
            ipcp = system.ipcp(plane.dif_name)
            expected = reference_fingerprint(ipcp)
            assert rows[name] == expected, name
            assert rib_fingerprint(ipcp) == expected, name

    def test_equals_the_per_member_rendering_through_crash_and_rejoin(self):
        spec = build_flood_spec(3, 4)
        workload = build_stateful_workload(3, 4)
        network = spec.build(seed=0)
        plane = StatefulControlPlane(network, workload)
        until = workload["until"]
        network.run(until=until)
        assert all(row["ok"] for row in plane.delivery_rows())
        self.assert_fingerprints_match(plane)

        victim, via, lower = next(
            (system, via, lower)
            for system, via, lower, _at in workload["enrollments"]
            if system == "h1_2")
        ipcp = plane.systems[victim].ipcp(plane.dif_name)
        ipcp.crash()
        # before the neighbours time the victim out, then while the
        # border's withdrawal is still flooding: members hold two
        # versions of one LSA, and each must render its own
        network.run(until=until + 0.3)
        self.assert_fingerprints_match(plane)
        network.run(until=until + 2.179)
        border = plane.systems["border1"].ipcp(plane.dif_name).address
        seqs = {lsa.seq for system in plane.systems.values()
                for lsa in system.ipcp(plane.dif_name).routing.lsas()
                if lsa.origin is border}
        assert len(seqs) == 2
        self.assert_fingerprints_match(plane)

        ipcp.restart()
        plane._start_enroll(victim, via, lower)
        network.run(until=until + 6.0)
        rejoined = [row for row in plane.delivery_rows()
                    if row["node"] == victim]
        assert [row["ok"] for row in rejoined] == [True, True]
        self.assert_fingerprints_match(plane)
