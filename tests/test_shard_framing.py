"""The flat-byte boundary-frame transport.

A round's frames for one direction cross a worker pipe as one packed
buffer.  The contract: a lossless, bit-exact round trip for everything
the wire codec can produce (scalars + tagged tuples), loud rejection of
everything it cannot, and a self-delimiting layout that needs no
out-of-band framing.
"""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.shard import FrameFormatError, pack_frames, unpack_frames


def roundtrip(frames):
    return unpack_frames(pack_frames(frames))


class TestRoundTrip:
    def test_empty_batch(self):
        assert roundtrip([]) == []

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
        out = roundtrip(frames)
        assert out == frames
        # bool/int discrimination survives (True is not 1 on the wire)
        assert [type(f[2]) for f in out] == [type(f[2]) for f in frames]

    def test_nested_tagged_tuples(self):
        payload = ("T", "pdu", ("T", "rib", 7, ("a", "b"), b"x"), None)
        frames = [(0.125, "border1--core", payload, 6250)]
        assert roundtrip(frames) == frames

    def test_float_bit_exactness(self):
        # the equivalence contract rides on these: timestamps and
        # payload floats must survive to the last bit
        values = [0.1 + 0.2, -0.0, 5e-324, 1.7976931348623157e308,
                  math.pi, 6250 * 8.0 / 1e8]
        frames = [(value, "ab", value, 0) for value in values]
        out = roundtrip(frames)
        for (arrival, _link, payload, _size), value in zip(out, values):
            assert math.copysign(1.0, arrival) == math.copysign(1.0, value)
            assert arrival == value and payload == value

    def test_arbitrary_precision_ints(self):
        big = 2 ** 200 + 17
        frames = [(0.0, "ab", (big, -big, 2 ** 63 - 1, -(2 ** 63)), 0)]
        assert roundtrip(frames) == frames

    def test_many_frames_keep_order(self):
        frames = [(0.001 * i, f"link{i % 3}", ("T", i), i)
                  for i in range(100)]
        assert roundtrip(frames) == frames


class TestRejection:
    def test_live_object_payload_fails_at_the_sender(self):
        with pytest.raises(FrameFormatError, match="live"):
            pack_frames([(0.0, "ab", ["a", "list"], 0)])
        with pytest.raises(FrameFormatError, match="live"):
            pack_frames([(0.0, "ab", {"a": 1}, 0)])

    def test_bad_magic(self):
        buf = bytearray(pack_frames([(0.0, "ab", None, 0)]))
        buf[0] ^= 0xFF
        with pytest.raises(FrameFormatError, match="magic"):
            unpack_frames(bytes(buf))

    def test_unsupported_version(self):
        buf = bytearray(pack_frames([(0.0, "ab", None, 0)]))
        buf[1] = 99
        with pytest.raises(FrameFormatError, match="version"):
            unpack_frames(bytes(buf))

    def test_trailing_bytes(self):
        buf = pack_frames([(0.0, "ab", None, 0)]) + b"junk"
        with pytest.raises(FrameFormatError, match="trailing"):
            unpack_frames(buf)

    def test_truncated_header(self):
        with pytest.raises(FrameFormatError, match="truncated"):
            unpack_frames(b"\xb7\x01")

    def test_unknown_value_tag(self):
        buf = bytearray(pack_frames([(0.0, "ab", None, 0)]))
        buf[-1] = ord("?")   # the payload tag is the last byte
        with pytest.raises(FrameFormatError, match="tag"):
            unpack_frames(bytes(buf))


class TestErrorContract:
    """Whatever is wrong with a buffer, ``unpack_frames`` raises
    :class:`FrameFormatError` and nothing else (the mirror of the
    gateway's never-anything-but test for ``unpack_frame``)."""

    #: every value form, so a cut can land inside each of them
    BATCH = pack_frames([
        (0.001, "core--border0", ("T", 7, 2.5, "héllo", b"\x00\xff", None), 64),
        (0.002, "b", (1 << 70, True, ("nested", False)), 8),
    ])

    def test_every_truncation_offset(self):
        assert len(unpack_frames(self.BATCH)) == 2
        for cut in range(len(self.BATCH)):
            with pytest.raises(FrameFormatError):
                unpack_frames(self.BATCH[:cut])

    def test_damaged_link_name_byte(self):
        buf = bytearray(self.BATCH)
        buf[6 + 14] = 0xFF   # first byte of the first link name
        with pytest.raises(FrameFormatError, match="malformed"):
            unpack_frames(bytes(buf))

    def test_count_field_beyond_the_buffer(self):
        buf = bytearray(self.BATCH)
        buf[2:6] = struct.pack(">I", 0xFFFFFFFF)
        with pytest.raises(FrameFormatError):
            unpack_frames(bytes(buf))

    @pytest.mark.parametrize("tag", [b"s", b"b", b"I"])
    def test_length_prefix_overrunning_the_buffer(self, tag):
        # the value claims 5 bytes and 3 follow: never a short slice
        head = pack_frames([(0.0, "ab", None, 0)])[:-1]
        with pytest.raises(FrameFormatError, match="overruns"):
            unpack_frames(head + tag + struct.pack(">I", 5) + b"123")

    def test_link_name_overrunning_the_buffer(self):
        buf = struct.pack(">BBI", 0xB7, 1, 1) + struct.pack(">dHI", 0.0, 9, 0)
        with pytest.raises(FrameFormatError, match="overruns"):
            unpack_frames(buf + b"short")

    def test_tuples_nested_past_the_recursion_limit(self):
        head = pack_frames([(0.0, "ab", None, 0)])[:-1]
        with pytest.raises(FrameFormatError):
            unpack_frames(head + b"(\x00\x00\x00\x01" * 5000 + b"N")

    @given(st.binary(max_size=96))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_raise_anything_else(self, buf):
        # random bytes almost never start with the magic, so also put
        # them where the frame parser will actually read them
        for candidate in (buf, struct.pack(">BBI", 0xB7, 1, 1) + buf):
            try:
                unpack_frames(candidate)
            except FrameFormatError:
                pass
