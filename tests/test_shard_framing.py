"""The batch envelope of the shard cut (src/repro/shard/framing.py).

A round's frames for one direction cross a worker pipe as one packed
buffer: the codec's encoding of the list of ``(arrival, link name,
payload bytes, size)`` tuples, each payload already wire bytes and
opaque here.  The byte format's own properties are
``tests/test_codec.py``'s; this file holds what the envelope adds — the
shape of a batch checked at the sender and at the receiver, the
envelope fields bit-exact, one error type for every malformed buffer —
and the cases that look inside a payload do it the way a cut does:
``encode`` at the sending half, the envelope across the pipe,
``decode`` at the receiving half.
"""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import WireError, decode, encode
from repro.shard import pack_frames, unpack_frames

HEADER = encode(None)[:2]               # the codec's magic and version


def across_the_cut(frames):
    """Live frames through the whole cut path and back."""
    packed = pack_frames([(arrival, link, encode(payload), size)
                          for arrival, link, payload, size in frames])
    return [(arrival, link, decode(payload), size)
            for arrival, link, payload, size in unpack_frames(packed)]


def one_frame(payload):
    return pack_frames([(0.0, "ab", payload, 0)])


class TestRoundTrip:
    def test_empty_batch(self):
        assert unpack_frames(pack_frames([])) == []

    def test_opaque_payloads_come_back_untouched(self):
        # the envelope never parses a payload: any bytes at all cross
        frames = [(0.5, "a--b", b"", 0),
                  (0.25, "héllo 世界", b"\xff" * 70000, 7),
                  (1e-9, "", bytes(range(256)), 2 ** 32 - 1)]
        assert unpack_frames(pack_frames(frames)) == frames

    def test_scalar_payloads_and_identity_of_types(self):
        frames = [
            (0.001, "ab", None, 0),
            (0.002, "ab", True, 1),
            (0.003, "ab", False, 1),
            (0.004, "ab", 42, 8),
            (0.005, "ab", -1, 8),
            (0.006, "ab", 3.14159, 8),
            (0.007, "ab", "héllo 世界", 16),
            (0.008, "ab", b"\x00\xffraw", 5),
        ]
        out = across_the_cut(frames)
        assert out == frames
        # bool/int discrimination survives (True is not 1 on the wire)
        assert [type(f[2]) for f in out] == [type(f[2]) for f in frames]

    def test_nested_tagged_tuples(self):
        payload = ("T", "pdu", ("T", "rib", 7, ("a", "b"), b"x"), None)
        frames = [(0.125, "border1--core", payload, 6250)]
        assert across_the_cut(frames) == frames

    def test_float_bit_exactness(self):
        # the equivalence contract rides on these: timestamps and
        # payload floats must survive to the last bit
        values = [0.1 + 0.2, -0.0, 5e-324, 1.7976931348623157e308,
                  math.pi, 6250 * 8.0 / 1e8]
        frames = [(value, "ab", value, 0) for value in values]
        out = across_the_cut(frames)
        for (arrival, _link, payload, _size), value in zip(out, values):
            assert math.copysign(1.0, arrival) == math.copysign(1.0, value)
            assert arrival == value and payload == value

    def test_arbitrary_precision_ints(self):
        big = 2 ** 200 + 17
        frames = [(0.0, "ab", (big, -big, 2 ** 63 - 1, -(2 ** 63)), 0)]
        assert across_the_cut(frames) == frames

    def test_many_frames_keep_order(self):
        frames = [(0.001 * i, f"link{i % 3}", ("T", i), i)
                  for i in range(100)]
        assert across_the_cut(frames) == frames


class TestRejection:
    def test_live_object_payload_fails_at_the_sender(self):
        # the outbox invariant is ``type(payload) is bytes``: anything
        # else — a tuple tree included — never reaches the pipe
        for payload in (["a", "list"], {"a": 1}, ("T", 1), None,
                        bytearray(b"x")):
            with pytest.raises(WireError, match="live"):
                one_frame(payload)

    @pytest.mark.parametrize("batch", [
        ((0.0, "ab", b"", 0),),               # a tuple of frames, not a list
        [(0, "ab", b"", 0)],                  # int arrival
        [(0.0, b"ab", b"", 0)],               # bytes link name
        [(0.0, "ab", b"", 0.5)],              # float size
        [(0.0, "ab", b"", True)],             # bool is not a size
        [(0.0, "ab", b"")],                   # wrong arity
        [[0.0, "ab", b"", 0]],                # a list is not a frame
    ], ids=repr)
    def test_wrong_batch_shape_is_refused_both_ways(self, batch):
        with pytest.raises(WireError, match="frame"):
            pack_frames(batch)
        with pytest.raises(WireError, match="frame"):
            unpack_frames(encode(batch))

    def test_bad_magic(self):
        buf = bytearray(one_frame(b""))
        buf[0] ^= 0xFF
        with pytest.raises(WireError, match="magic"):
            unpack_frames(bytes(buf))

    def test_unsupported_version(self):
        buf = bytearray(one_frame(b""))
        buf[1] = 99
        with pytest.raises(WireError, match="version"):
            unpack_frames(bytes(buf))

    def test_trailing_bytes(self):
        with pytest.raises(WireError, match="trailing"):
            unpack_frames(one_frame(b"") + b"junk")

    def test_truncated_header(self):
        for cut in range(len(HEADER) + 1):
            with pytest.raises(WireError, match="truncated"):
                unpack_frames(HEADER[:cut])

    def test_unknown_value_tag(self):
        # the envelope forwards it (the coordinator never looks inside);
        # the receiving half's decode refuses it
        damaged = encode(None)[:-1] + b"?"
        (frame,) = unpack_frames(one_frame(damaged))
        with pytest.raises(WireError, match="tag"):
            decode(frame[2])


class TestErrorContract:
    """Whatever is wrong with a buffer, ``unpack_frames`` raises
    :class:`WireError` and nothing else."""

    BATCH = pack_frames([
        (0.001, "core--border0", encode((7, 2.5, "héllo", b"\x00\xff")), 64),
        (0.002, "b", b"", 8),
    ])

    def test_every_truncation_offset(self):
        assert len(unpack_frames(self.BATCH)) == 2
        for cut in range(len(self.BATCH)):
            with pytest.raises(WireError):
                unpack_frames(self.BATCH[:cut])

    def test_damaged_link_name_byte(self):
        buf = bytearray(self.BATCH)
        buf[buf.index(b"core--border0")] = 0xFF
        with pytest.raises(WireError, match="malformed"):
            unpack_frames(bytes(buf))

    def test_count_field_beyond_the_buffer(self):
        buf = bytearray(self.BATCH)
        assert buf[2:7] == b"[" + struct.pack(">I", 2)   # two frames
        buf[3:7] = struct.pack(">I", 0xFFFFFFFF)
        with pytest.raises(WireError):
            unpack_frames(bytes(buf))

    @pytest.mark.parametrize("tag", [b"s", b"b", b"I"])
    def test_length_prefix_overrunning_the_buffer(self, tag):
        # the envelope's own prefix: cut behind the frame's size field
        # (9 bytes) and 4 more, the payload claims 10 bytes and 6 follow
        payload = HEADER + tag + struct.pack(">I", 5) + b"123"
        buf = one_frame(payload)
        with pytest.raises(WireError, match="overruns"):
            unpack_frames(buf[:-(9 + 4)])
        # and the value's, inside a payload that crossed intact: the
        # receiving half refuses it (5 bytes claimed, 3 follow)
        (frame,) = unpack_frames(buf)
        with pytest.raises(WireError, match="overruns"):
            decode(frame[2])

    def test_link_name_overrunning_the_buffer(self):
        buf = (HEADER + b"[" + struct.pack(">I", 1) + b"(" + struct.pack(">I", 4)
               + b"d" + struct.pack(">d", 0.0) + b"s" + struct.pack(">I", 9))
        with pytest.raises(WireError, match="overruns"):
            unpack_frames(buf + b"short")

    def test_tuples_nested_past_the_recursion_limit(self):
        # depth is the payload's business: the envelope carries it
        # flat, the receiving half's decode refuses it
        deep = HEADER + b"(\x00\x00\x00\x01" * 5000 + b"N"
        (frame,) = unpack_frames(one_frame(deep))
        assert frame[2] == deep
        with pytest.raises(WireError):
            decode(frame[2])

    @given(st.binary(max_size=96))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_raise_anything_else(self, buf):
        # random bytes almost never start with the magic, so also put
        # them where the frame parser will actually read them
        for candidate in (buf, HEADER + b"[\0\0\0\1(\0\0\0\4" + buf):
            try:
                unpack_frames(candidate)
            except WireError:
                pass
