"""Unit tests for naming, QoS cubes, and PDU formats."""

import pytest
from hypothesis import given, strategies as st

from repro.core.names import Address, ApplicationName, DifName, PortId
from repro.core.pdu import (ACK, CONTROL_HEADER_BYTES, DATA_HEADER_BYTES,
                            KEEPALIVE, MGMT_HEADER_BYTES, ControlPdu, DataPdu,
                            ManagementPdu)
from repro.core.qos import (BEST_EFFORT, DEFAULT_CUBES, RELIABLE, QosCube,
                            resolve_cube)
from repro.core.riep import RiepMessage


class TestApplicationName:
    def test_equality_by_process_and_instance(self):
        assert ApplicationName("x") == ApplicationName("x")
        assert ApplicationName("x", "2") != ApplicationName("x", "1")

    def test_hashable(self):
        assert len({ApplicationName("a"), ApplicationName("a")}) == 1

    def test_str_roundtrip_default_instance(self):
        name = ApplicationName("video-server")
        assert ApplicationName.parse(str(name)) == name

    def test_str_roundtrip_with_instance(self):
        name = ApplicationName("worker", "7")
        assert str(name) == "worker/7"
        assert ApplicationName.parse("worker/7") == name

    @given(st.text(alphabet=st.characters(blacklist_characters="/",
                                          blacklist_categories=("Cs",)),
                   min_size=1),
           st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                   min_size=1))
    def test_property_parse_inverts_str(self, process, instance):
        name = ApplicationName(process, instance)
        assert ApplicationName.parse(str(name)) == name

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ApplicationName("")


class TestAddress:
    def test_flat_address(self):
        address = Address(7)
        assert address.is_flat
        assert str(address) == "7"

    def test_topological_address(self):
        address = Address(2, 0, 13)
        assert not address.is_flat
        assert str(address) == "2.0.13"

    def test_prefix_and_match(self):
        address = Address(2, 0, 13)
        assert address.prefix(2) == (2, 0)
        assert address.matches_prefix((2,))
        assert address.matches_prefix((2, 0))
        assert not address.matches_prefix((3,))

    def test_prefix_out_of_range(self):
        with pytest.raises(ValueError):
            Address(1).prefix(5)

    def test_empty_address_rejected(self):
        with pytest.raises(ValueError):
            Address()

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            Address(-1)

    def test_ordering_and_hash(self):
        assert Address(1) < Address(2)
        assert Address(1, 2) < Address(1, 3)
        assert len({Address(1), Address(1)}) == 1

    def test_iteration_and_len(self):
        assert list(Address(1, 2, 3)) == [1, 2, 3]
        assert len(Address(1, 2, 3)) == 3


class TestPortAndDifNames:
    def test_port_equality(self):
        assert PortId(3) == PortId(3)
        assert PortId(3) != PortId(4)

    def test_port_negative_rejected(self):
        with pytest.raises(ValueError):
            PortId(-1)

    def test_dif_name_equality(self):
        assert DifName("metro") == DifName("metro")

    def test_ipcp_name_convention(self):
        name = DifName("metro").ipcp_name("host-a")
        assert name == ApplicationName("metro.ipcp.host-a")

    def test_empty_dif_name_rejected(self):
        with pytest.raises(ValueError):
            DifName("")


class TestQosCubes:
    def test_reliable_cube_forces_zero_loss_tolerance(self):
        cube = QosCube("r", reliable=True, loss_tolerance=0.5)
        assert cube.loss_tolerance == 0.0

    def test_compatibility_reliability(self):
        assert RELIABLE.compatible_with(RELIABLE)
        assert not RELIABLE.compatible_with(BEST_EFFORT)
        assert BEST_EFFORT.compatible_with(RELIABLE)

    def test_compatibility_delay_bound(self):
        tight = QosCube("t", max_delay=0.01)
        loose = QosCube("l", max_delay=0.5)
        assert loose.compatible_with(tight)
        assert not tight.compatible_with(loose)
        assert not tight.compatible_with(BEST_EFFORT)

    def test_resolve_exact_name_wins(self):
        assert resolve_cube(RELIABLE, DEFAULT_CUBES) is DEFAULT_CUBES["reliable"]

    def test_resolve_none_is_best_effort(self):
        assert resolve_cube(None, DEFAULT_CUBES).name == "best-effort"

    def test_resolve_compatible_fallback(self):
        request = QosCube("custom", reliable=True)
        resolved = resolve_cube(request, DEFAULT_CUBES)
        assert resolved.reliable

    def test_resolve_failure_raises(self):
        request = QosCube("impossible", max_delay=1e-9)
        with pytest.raises(LookupError):
            resolve_cube(request, {"best-effort": BEST_EFFORT})

    def test_priority_validation(self):
        with pytest.raises(ValueError):
            QosCube("bad", priority=-1)

    def test_loss_tolerance_validation(self):
        with pytest.raises(ValueError):
            QosCube("bad", loss_tolerance=2.0)

    def test_default_cubes_cover_the_range(self):
        assert {"best-effort", "reliable", "low-latency", "bulk"} <= set(DEFAULT_CUBES)
        assert DEFAULT_CUBES["low-latency"].priority < DEFAULT_CUBES["bulk"].priority


class TestPduFormats:
    def test_data_pdu_wire_size(self):
        pdu = DataPdu(Address(1), Address(2), 1, 2, 0, b"x" * 100, 100)
        assert pdu.wire_size() == DATA_HEADER_BYTES + 100

    def test_data_pdu_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            DataPdu(Address(1), Address(2), 1, 2, 0, b"", -1)

    def test_control_pdu_wire_size_includes_sack(self):
        pdu = ControlPdu(Address(1), Address(2), ACK, 1, 2, ack_seq=5,
                         sack=(7, 9))
        assert pdu.wire_size() == CONTROL_HEADER_BYTES + 8

    def test_control_pdu_kind_validated(self):
        with pytest.raises(ValueError):
            ControlPdu(Address(1), Address(2), "bogus", 1, 2)

    def test_keepalive_is_a_valid_kind(self):
        pdu = ControlPdu(Address(1), Address(2), KEEPALIVE, 0, 0)
        assert pdu.kind == KEEPALIVE

    def test_management_pdu_size_tracks_message(self):
        small = ManagementPdu(None, None, RiepMessage("M_READ", obj="/x"))
        large = ManagementPdu(None, None, RiepMessage(
            "M_WRITE", obj="/x", value={"k": "v" * 500}))
        assert small.wire_size() >= MGMT_HEADER_BYTES
        assert large.wire_size() > small.wire_size() + 400

    def test_management_pdu_hop_scoped_has_no_destination(self):
        pdu = ManagementPdu(Address(1), None, RiepMessage("M_READ"))
        assert pdu.dst_addr is None
