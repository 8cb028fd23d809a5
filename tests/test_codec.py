"""The wire codec contract (see src/repro/core/codec.py) — the one suite.

``encode`` is the only encoder in ``src/`` and ``decode`` the only
decoder, so every property a byte format owes its readers is stated
here, once, over every PDU kind, every RIEP opcode shape, LSAs,
addresses, fragments and a zoo of JSON-like values:

* **round trip** — decode(encode(x)) is equal-valued (and equal-typed)
  to x, in this process and in a spawn-ed worker with no inherited
  interning;
* **canonical bytes** — encode(decode(b)) == b for every buffer decode
  accepts: generated values, and valid buffers mutated at random;
* **one error** — truncation at every offset, overrunning length
  prefixes, 5,000-deep nesting, structurally wrong records, arbitrary
  bytes: ``WireError`` and nothing else;
* **size consistency** — the live ``wire_size()``, the decoded copy's
  (RIEP size carried across the cut) and the decoded copy's with every
  cache cleared all agree.

``tests/test_shard_framing.py`` (the batch envelope) and
``tests/test_gateway_wire.py`` (shim-frame shape, TCP records) cover
only what those modules add on top of these bytes.
"""

import hashlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import codec
from repro.core.codec import WireError, decode, encode
from repro.core.delimiting import Fragment
from repro.core.names import Address, ApplicationName, DifName
from repro.core.pdu import (ACK, CREDIT, KEEPALIVE, NACK, ControlPdu,
                            DataPdu, ManagementPdu)
from repro.core.riep import (M_CONNECT, M_CREATE, M_READ_R, M_START,
                             M_WRITE, RESULT_DENIED, RiepMessage)
from repro.core.routing import Lsa

A = Address(2, 0, 13)
B = Address(7)
HEADER = bytes((codec.MAGIC, codec.VERSION))


def riep_value_zoo():
    """Payload values covering every value form and every branch of
    the size estimator."""
    return [
        None,
        True,
        False,
        0,
        -17,
        2.5,
        "a string",
        b"\x00\x01\xff",
        [1, "two", 3.0],
        (4, (5, 6)),
        {"origin": (1, 2), "seq": 9,
         "neighbors": [((7,), 1.0), ((2, 0, 13), 2.0)]},
        {"nested": {"deep": [None, {"x": b"y"}]}},
        (2 ** 200 + 17, -(2 ** 200), 2 ** 63 - 1, -(2 ** 63), 2 ** 63),
        ("héllo 世界", 0.1 + 0.2, -0.0, 5e-324, 1.7976931348623157e308),
        [],
        {},
    ]


def pdu_zoo():
    """At least one PDU of every kind, edge fields exercised."""
    pdus = [
        DataPdu(A, B, 5, 6, 7, "payload", 100),
        DataPdu(B, A, 1, 2, 0, ("tuple", ["list", b"bytes"]), 0,
                drf=True, ttl=3, priority=2),
        ControlPdu(A, B, ACK, 5, 6, ack_seq=9, credit=4),
        ControlPdu(B, A, NACK, 1, 2, sack=(11, 13, 17)),
        ControlPdu(A, B, CREDIT, 0, 0, credit=32),
        ControlPdu(A, B, KEEPALIVE, 0, 0),
        ManagementPdu(None, None,
                      RiepMessage(M_CONNECT, obj="/enrollment",
                                  value={"name": "x.ipcp.h0", "dif": "flat",
                                         "region": (2, 1), "address": None})),
        ManagementPdu(A, None,
                      RiepMessage(M_READ_R, obj="/enrollment",
                                  invoke_id=4, result=RESULT_DENIED)),
        ManagementPdu(A, B,
                      RiepMessage(M_CREATE, obj="/flowalloc",
                                  value={"src_app": "echo", "dst_app": "srv",
                                         "qos": "best-effort", "src_cep": 3,
                                         "src_addr": (2, 0, 13)})),
        ManagementPdu(A, None, {"not": "a riep message"}),
    ]
    for value in riep_value_zoo():
        pdus.append(ManagementPdu(
            A, None, RiepMessage(M_WRITE, obj="/routing/lsa", value=value)))
    return pdus


_PDU_FIELDS = {
    DataPdu: ("src_cep", "dst_cep", "seq", "payload", "payload_size", "drf"),
    ControlPdu: ("kind", "src_cep", "dst_cep", "ack_seq", "credit", "sack"),
    ManagementPdu: ("message",),
}


def live_fields(value):
    """``value`` as type names and field values only — what a frame
    *says*, independent of how the codec spells it in bytes.  The
    gateway suites hash this rendering for their format-independent
    pins, so a change here re-captures those."""
    kind = type(value)
    if kind in (tuple, list):
        return (kind.__name__, [live_fields(item) for item in value])
    if kind is dict:
        return ("dict", [(live_fields(key), live_fields(val))
                         for key, val in value.items()])
    if kind is Address:
        return ("Address", value.parts)
    if kind is Fragment:
        return ("Fragment", value.message_id, value.index, value.last,
                value.data)
    if kind is RiepMessage:
        return ("RiepMessage", value.opcode, value.obj,
                live_fields(value.value), value.invoke_id, value.result,
                value.estimate_size())
    if kind is Lsa:
        return ("Lsa", value.origin.parts, value.seq,
                [(addr.parts, cost)
                 for addr, cost in sorted(value.neighbors.items())])
    if kind in _PDU_FIELDS:
        return (kind.__name__,) + tuple(
            live_fields(getattr(value, name))
            for name in ("src_addr", "dst_addr", "ttl", "priority")
            + _PDU_FIELDS[kind])
    assert value is None or kind in (bool, int, float, str, bytes), kind
    return value


def said(value):
    """``repr`` of :func:`live_fields`: equal-valued *and* equal-typed
    (``True`` is not ``1`` is not ``1.0``), floats to the last bit."""
    return repr(live_fields(value))


def live_sha256(value):
    return hashlib.sha256(said(value).encode()).hexdigest()


def tagged(tag, fmt="", *fields):
    """A buffer holding one hand-built value: header, tag, the
    fields struct-packed big-endian."""
    return HEADER + tag + struct.pack(">" + fmt, *fields)


# ----------------------------------------------------------------------
# Round trip + byte stability
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("index", range(len(pdu_zoo())))
    def test_every_pdu_kind_round_trips(self, index):
        pdu = pdu_zoo()[index]
        encoded = encode(pdu)
        assert type(encoded) is bytes
        copy = decode(encoded)
        assert said(copy) == said(pdu)
        # byte stability: the encoded form is canonical
        assert encode(copy) == encoded

    @pytest.mark.parametrize("index", range(len(riep_value_zoo())))
    def test_every_value_shape_round_trips(self, index):
        value = riep_value_zoo()[index]
        encoded = encode(value)
        assert type(encoded) is bytes
        # equal-typed and bit-exact: bool stays bool, -0.0 keeps its sign
        assert said(decode(encoded)) == said(value)
        assert encode(decode(encoded)) == encoded

    def test_riep_message_round_trip(self):
        message = RiepMessage(M_START, obj="/enrollment/auth",
                              value={"credentials": "tok"}, invoke_id=7)
        copy = decode(encode(message))
        assert type(copy) is RiepMessage
        assert (copy.opcode, copy.obj, copy.value, copy.invoke_id,
                copy.result) == (message.opcode, message.obj, message.value,
                                 message.invoke_id, message.result)
        assert encode(copy) == encode(message)

    def test_lsa_round_trip_reinterns_addresses(self):
        # no sender under src/ (LSAs travel as RIEP values); the kind
        # stays for perf/probes.py, which times a bare one
        lsa = Lsa(A, 4, {B: 1.0, Address(9): 2.5})
        copy = decode(encode(lsa))
        assert type(copy) is Lsa
        assert copy.origin is A          # interning: identity, not just ==
        assert copy.seq == 4 and copy.neighbors == lsa.neighbors
        assert copy.to_value() == lsa.to_value()
        assert encode(copy) == encode(lsa)

    def test_names_round_trip(self):
        for name in (A, B, Address(0), Address(2 ** 64 - 1)):
            assert decode(encode(name)) == name

    def test_decoded_addresses_are_interned(self):
        copy = decode(encode(Address(41, 5)))
        assert copy is Address(41, 5)

    def test_shim_frame_round_trips(self):
        # what actually crosses a physical link in the stateful build:
        # a shim frame wrapping a PDU
        inner = ManagementPdu(None, None,
                              RiepMessage(M_CONNECT, obj="/enrollment",
                                          value={"dif": "flat"}))
        frame = ("data", 4, inner, inner.wire_size())
        encoded = encode(frame)
        kind, flow_id, pdu, size = decode(encoded)
        assert (kind, flow_id, size) == ("data", 4, inner.wire_size())
        assert said(pdu) == said(inner)
        assert encode((kind, flow_id, pdu, size)) == encoded

    def test_live_objects_are_rejected(self):
        class Alien:
            pass

        class Count(int):
            pass
        # kinds with no sender under src/ were pruned with the tree:
        # a set, an application or DIF name is as alien as an Alien
        for value in (Alien(), DataPdu(A, B, 1, 2, 3, Alien(), 10),
                      {1, 2}, frozenset(), ApplicationName("p", "1"),
                      DifName("metro"), Count(3), ("frame", [Alien()])):
            with pytest.raises(WireError, match="cannot encode"):
                encode(value)

    @pytest.mark.parametrize("value", [
        DataPdu(A, B, 1, 2, "three", None, 10),       # non-int sequence
        DataPdu("2.0.13", B, 1, 2, 3, None, 10),      # non-address source
        DataPdu(A, B, 1, 2, 3, None, 10, drf=None),   # non-bool flag
        ControlPdu(A, B, ACK, 1, 2, sack=("x",)),
        Fragment(1, 0, True, "text"),                 # non-bytes data
        Fragment(2 ** 70, 0, True, b""),              # wider than the field
        10 ** 5000,                                   # no decimal text
    ], ids=lambda value: type(value).__name__)
    def test_fields_the_layout_cannot_hold_fail_at_the_sender(self, value):
        with pytest.raises(WireError, match="cannot encode|not bytes"):
            encode(value)


class TestFollowedFlag:
    """``DataPdu.followed`` rides the flag byte that carries ``drf``
    (lower case when set), so an unfollowed PDU's bytes are the ones
    the codec wrote before the flag existed."""

    #: DataPdu(Address(1, 2), Address(3), 5, 6, 7, b"sdu", 3, drf=True),
    #: as encoded before ``followed`` existed
    UNFOLLOWED = bytes.fromhex(
        "b802440000000000000040000000000000000800000000000000050000000000"
        "0000060000000000000007000000000000000354020000000000000001000000"
        "00000000020100000000000000036200000003736475")

    @staticmethod
    def _pdu(**flags):
        return DataPdu(Address(1, 2), Address(3), 5, 6, 7, b"sdu", 3, **flags)

    def test_an_unfollowed_pdu_encodes_as_before(self):
        assert encode(self._pdu(drf=True)) == self.UNFOLLOWED

    @pytest.mark.parametrize("drf", [False, True])
    def test_a_followed_pdu_round_trips(self, drf):
        buf = encode(self._pdu(drf=drf, followed=True))
        back = decode(buf)
        assert (back.drf, back.followed) == (drf, True)
        assert encode(back) == buf
        # one byte tells them apart: the flag byte, in lower case
        flag_at = len(HEADER) + codec._S_DATA.size - 1
        plain = encode(self._pdu(drf=drf))
        assert [i for i in range(len(buf)) if buf[i] != plain[i]] == [
            flag_at]
        assert buf[flag_at:flag_at + 1] == (b"t" if drf else b"f")

    def test_a_followed_pdu_crosses_the_gateway_wire(self):
        from repro.gateway.wire import decode_shim_frame, frame_to_wire
        frame = ("data", 3, self._pdu(followed=True), 43)
        kind, flow_id, pdu, size = decode_shim_frame(frame_to_wire(frame))
        assert (kind, flow_id, size) == ("data", 3, 43)
        assert (pdu.seq, pdu.drf, pdu.followed) == (7, False, True)

    def test_a_followed_pdu_crosses_a_shard_cut(self):
        from repro.shard.engine import BoundaryHalf
        from repro.sim.engine import Engine
        outbox, received = [], []
        sender = BoundaryHalf(Engine(), "cut", outbox, local_index=0)
        receiver = BoundaryHalf(Engine(), "cut", [], local_index=1)
        receiver.ends[1].attach(lambda frame, size: received.append(frame))
        assert sender.ends[0].send(("data", 3, self._pdu(followed=True),
                                    43), 51)
        (_when, name, wire, size), = outbox
        receiver.deliver_inbound(wire, size)
        (_kind, _flow, pdu, _size), = received
        assert (name, pdu.seq, pdu.followed) == ("cut", 7, True)


# ----------------------------------------------------------------------
# Size consistency (the wire_size / _size_cache regression)
# ----------------------------------------------------------------------
class TestSizeConsistency:
    @pytest.mark.parametrize("index", range(len(pdu_zoo())))
    def test_three_accountings_agree(self, index):
        # the live object's wire_size(), the decoded copy's (RIEP size
        # carried in the bytes) and the decoded copy's with every cache
        # cleared, so the estimate is recomputed from decoded values
        pdu = pdu_zoo()[index]
        live = pdu.wire_size()
        copy = decode(encode(pdu))
        carried = copy.wire_size()
        if isinstance(copy, ManagementPdu) and isinstance(copy.message,
                                                          RiepMessage):
            copy.message._size_cache = None
        assert live == carried == copy.wire_size()

    def test_decoded_riep_size_cache_matches_carried_and_recomputed(self):
        message = RiepMessage(M_WRITE, obj="/routing/lsa",
                              value={"origin": (1,), "seq": 2,
                                     "neighbors": [((3,), 1.0)]})
        carried = message.estimate_size()
        copy = decode(encode(message))
        assert copy._size_cache == carried       # carried across the cut
        copy._size_cache = None
        assert copy.estimate_size() == carried   # and independently equal


# ----------------------------------------------------------------------
# One error: whatever is wrong with a buffer
# ----------------------------------------------------------------------
#: byte-level forms of the structurally wrong trees probed against the
#: tagged-tuple decoder this format replaced: of fifteen, twelve escaped
#: it as a bare TypeError / ValueError / IndexError and one (a fragment
#: with text fields) was accepted
WRONG_STRUCTURE = {
    "dict with a list key": tagged(b"{", "I", 1) + b"[" + bytes(4) + b"N",
    "dict entry without a value": tagged(b"{", "I", 1) + b"N",
    "set (a kind that went)": tagged(b"S", "I", 0),
    "application name (a kind that went)": tagged(b"n"),
    "empty buffer body": HEADER,
    "riep record of one int": tagged(b"R", "cq", b"i", 1),
    "riep opcode that is an int":
        tagged(b"R", "qqQ", 0, 0, 20) + b"i" + bytes(8) + b"N" + b"N",
    "lsa record with nothing after the tag": tagged(b"L"),
    "lsa with an int where the origin belongs": tagged(b"L", "qIcq", 5, 1,
                                                       b"i", 7),
    "address with no components": tagged(b"A", "B", 0),
    "address cut inside a component": tagged(b"A", "B", 2) + b"s\0\0\0\1x",
    "data pdu of two ints": tagged(b"D", "cqcq", b"i", 1, b"i", 2),
    "data pdu with a flag byte of 2":
        tagged(b"D", "qqqqqQB", 64, 8, 1, 2, 3, 10, 2) + b"\0\0N",
    "fragment of one field": tagged(b"f", "q", 1),
    "fragment with a text flag": tagged(b"f", "qqcI", 1, 0, b"a", 0),
    "control pdu of an unknown kind":
        tagged(b"C", "qqqqqqI", 64, 0, 1, 2, 0, 0, 0) + b"\0\0"
        + b"s\0\0\0\3ick",
    "control pdu whose kind is a list":
        tagged(b"C", "qqqqqqI", 64, 0, 1, 2, 0, 0, 0) + b"\0\0"
        + b"[" + bytes(4),
}

#: accepted by a lenient reader, refused here: decode(b) succeeding
#: must mean encode(decode(b)) == b
NON_CANONICAL = {
    "big-int text that fits an i64": b"5",
    "big-int text with a plus sign": b"+" + str(2 ** 70).encode(),
    "big-int text with underscores": b"1_000_000_000_000_000_000_000",
    "big-int text with leading zeros": b"000" + str(2 ** 70).encode(),
    "big-int text with whitespace": b" " + str(2 ** 70).encode(),
    "big-int text of minus zero": b"-0",
    "big-int text that is not a number": b"twelve",
}


class TestErrorContract:
    """Whatever is wrong with a buffer, ``decode`` raises
    :class:`WireError` and nothing else."""

    #: every value form and every record, so a cut can land inside each
    BUFFER = encode((
        7, 2.5, "héllo", b"\x00\xff", None, True, False, 1 << 70, [A],
        {"k": (1, [2])}, Fragment(3, 1, False, b"mid"),
        DataPdu(A, B, 5, 6, 7, b"sdu", 3, drf=True),
        ControlPdu(B, None, NACK, 1, 2, sack=(11, 13)),
        ManagementPdu(A, None, RiepMessage(M_WRITE, obj="/x", value=[1.0])),
        Lsa(A, 4, {B: 1.0, Address(9): 2.5}),
    ))

    def test_every_truncation_offset(self):
        assert len(decode(self.BUFFER)) == 15
        for cut in range(len(self.BUFFER)):
            with pytest.raises(WireError):
                decode(self.BUFFER[:cut])

    def test_trailing_bytes(self):
        with pytest.raises(WireError, match="trailing"):
            decode(self.BUFFER + b"x")

    def test_bad_magic(self):
        with pytest.raises(WireError, match="magic"):
            decode(b"\xb7" + self.BUFFER[1:])

    def test_unsupported_version(self):
        with pytest.raises(WireError, match="version"):
            decode(self.BUFFER[:1] + b"\x01" + self.BUFFER[2:])

    def test_unknown_value_tag(self):
        with pytest.raises(WireError, match="tag"):
            decode(HEADER + b"?")

    @pytest.mark.parametrize("value", [("a", "tuple"), 5, None, "text"])
    def test_not_a_buffer(self, value):
        with pytest.raises(WireError):
            decode(value)

    @pytest.mark.parametrize("tag", [b"s", b"b", b"I"])
    def test_length_prefix_overrunning_the_buffer(self, tag):
        # the value claims 5 bytes and 3 follow: never a short slice
        with pytest.raises(WireError, match="overruns"):
            decode(tagged(tag, "I", 5) + b"123")

    def test_fragment_data_overrunning_the_buffer(self):
        with pytest.raises(WireError, match="overruns"):
            decode(tagged(b"f", "qqcI", 1, 0, b"T", 5) + b"123")

    @pytest.mark.parametrize("tag", [b"(", b"[", b"{"])
    def test_count_field_beyond_the_buffer(self, tag):
        with pytest.raises(WireError):
            decode(tagged(tag, "I", 0xFFFFFFFF) + b"N")

    @pytest.mark.parametrize("opener", [b"(\x00\x00\x00\x01",
                                        b"[\x00\x00\x00\x01"])
    def test_nesting_past_the_recursion_limit(self, opener):
        with pytest.raises(WireError):
            decode(HEADER + opener * 5000 + b"N")

    def test_nesting_past_the_recursion_limit_at_the_sender(self):
        deep = None
        for _ in range(5000):
            deep = [deep]
        with pytest.raises(WireError, match="cannot encode"):
            encode(deep)

    @pytest.mark.parametrize("name", sorted(WRONG_STRUCTURE))
    def test_structurally_wrong_buffers(self, name):
        with pytest.raises(WireError):
            decode(WRONG_STRUCTURE[name])

    @pytest.mark.parametrize("name", sorted(NON_CANONICAL))
    def test_non_canonical_big_int_text(self, name):
        text = NON_CANONICAL[name]
        with pytest.raises(WireError):
            decode(tagged(b"I", "I", len(text)) + text)

    def test_duplicate_dict_key(self):
        entry = b"s\0\0\0\1k" + b"N"
        assert decode(tagged(b"{", "I", 1) + entry) == {"k": None}
        with pytest.raises(WireError, match="duplicate"):
            decode(tagged(b"{", "I", 2) + entry + entry)
        # 1 == True == 1.0: one key to a dict, so one key on the wire
        with pytest.raises(WireError, match="duplicate"):
            decode(tagged(b"{", "I", 2) + b"i" + struct.pack(">q", 1) + b"N"
                   + b"T" + b"N")

    def test_lsa_neighbors_out_of_order_or_repeated(self):
        good = encode(Lsa(A, 4, {B: 1.0, Address(9): 2.5}))
        head, first, second = good[:-34], good[-34:-17], good[-17:]
        assert decode(head + first + second).neighbors == {B: 1.0,
                                                           Address(9): 2.5}
        for tail in (second + first, first + first):
            with pytest.raises(WireError, match="order"):
                decode(head + tail)

    @given(st.binary(max_size=96))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_raise_anything_else(self, buf):
        # random bytes almost never start with the header, so also put
        # them where the value parser will actually read them
        for candidate in (buf, HEADER + buf):
            try:
                decode(candidate)
            except WireError:
                pass


# ----------------------------------------------------------------------
# Canonical bytes, as a property
# ----------------------------------------------------------------------
_addresses = st.lists(st.integers(0, 2 ** 64 - 1), min_size=1,
                      max_size=4).map(lambda parts: Address(*parts))
_maybe_address = st.none() | _addresses
_i64 = st.integers(-(2 ** 63), 2 ** 63 - 1)
_scalars = (st.none() | st.booleans() | st.integers(-(2 ** 80), 2 ** 80)
            | st.floats(allow_nan=False) | st.text(max_size=12)
            | st.binary(max_size=12) | _addresses)
_keys = (st.integers(-(2 ** 70), 2 ** 70) | st.text(max_size=6)
         | st.binary(max_size=6)
         | st.tuples(st.integers(0, 9), st.text(max_size=3)))
_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_keys, inner, max_size=4)),
    max_leaves=12)
_riep = st.builds(RiepMessage, st.sampled_from([M_WRITE, M_READ_R, M_START]),
                  obj=st.text(max_size=16), value=_values,
                  invoke_id=_i64, result=_i64)
_fragments = st.builds(Fragment, _i64, _i64, st.booleans(),
                       st.binary(max_size=32))
_payloads = _values | _fragments | _riep
_pdus = (st.builds(DataPdu, _maybe_address, _maybe_address, _i64, _i64, _i64,
                   _payloads, st.integers(0, 2 ** 64 - 1),
                   drf=st.booleans(), ttl=_i64, priority=_i64,
                   followed=st.booleans())
         | st.builds(ControlPdu, _maybe_address, _maybe_address,
                     st.sampled_from([ACK, NACK, CREDIT, KEEPALIVE]),
                     _i64, _i64, ack_seq=_i64, credit=_i64,
                     sack=st.lists(_i64, max_size=4), ttl=_i64,
                     priority=_i64)
         | st.builds(ManagementPdu, _maybe_address, _maybe_address,
                     _riep | _values, ttl=_i64, priority=_i64)
         | st.builds(Lsa, _addresses, _i64,
                     st.dictionaries(_addresses,
                                     st.floats(allow_nan=False),
                                     max_size=4)))
_wire_values = _payloads | _pdus | st.tuples(
    st.sampled_from(["data", "alloc", "dealloc"]), st.integers(0, 2 ** 31),
    _payloads | _pdus, st.integers(0, 1 << 20))


class TestCanonicalBytes:
    @given(_wire_values)
    @settings(max_examples=300, deadline=None)
    def test_generated_values_round_trip_to_the_same_bytes(self, value):
        encoded = encode(value)
        copy = decode(encoded)
        assert said(copy) == said(value)
        assert encode(copy) == encoded

    @given(_wire_values, st.data())
    @settings(max_examples=500, deadline=None)
    def test_mutated_buffers_are_refused_or_canonical(self, value, data):
        """Each mutation of a valid buffer either raises ``WireError``
        or decodes to a value that re-encodes to the same bytes — there
        is no second spelling of anything ``decode`` accepts."""
        buf = bytearray(encode(value))
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(buf) - 1))
            edit = data.draw(st.sampled_from(["set", "insert", "delete"]))
            if edit == "delete":
                del buf[at]
            elif edit == "insert":
                buf.insert(at, data.draw(st.integers(0, 255)))
            else:
                buf[at] = data.draw(st.integers(0, 255))
            if not buf:
                break
        mutated = bytes(buf)
        try:
            copy = decode(mutated)
        except WireError:
            return
        assert encode(copy) == mutated


# ----------------------------------------------------------------------
# Across a spawn-ed process boundary
# ----------------------------------------------------------------------
def test_round_trip_is_stable_in_spawned_workers():
    """Encoded samples decoded and re-encoded inside spawn-ed pool
    workers canonicalize to the same bytes: nothing in the round trip
    depends on parent-process state (interning tables, caches)."""
    from repro.sweeps import Job, SweepRunner
    samples = tuple(encode(pdu) for pdu in pdu_zoo())
    jobs = [Job("repro.core.codec:roundtrip_rows",
                kwargs={"samples": samples}, group="codec",
                label="spawned round trip")] * 2
    rows = SweepRunner(workers=2, start_method="spawn").run(jobs)
    assert len(rows) == 2 * len(samples)
    assert all(row["stable"] for row in rows)
    sizes = [pdu.wire_size() for pdu in pdu_zoo()]
    for row in rows:
        assert row["size"] == sizes[row["index"]]
