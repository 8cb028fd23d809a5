"""Gateway wire layer: the shim-frame shape check and TCP records.

A wire frame is the codec's bytes, nothing added (the byte format's own
suite is ``tests/test_codec.py``); what the gateway adds is the shape
and range check on what those bytes decode to, and the u32 record
framing of a TCP stream.  A data frame is written and read in one pass
of its own, held to the codec byte for byte and error for error by
``TestDataFramePass``.  Every way a peer can hand the gateway garbage
— truncated header, wrong magic, unknown version, trailing bytes, an
oversize or impossible TCP length prefix, a decodable value that is not
a shim frame — must surface as :class:`WireError`, the single failure
mode the socket readers contain.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import WireError, decode, encode
from repro.core.delimiting import Fragment
from repro.gateway.wire import (LENGTH_PREFIX, MAX_DATA_BYTES,
                                MAX_FRAME_BYTES, StreamFramingError,
                                StreamUnframer, decode_shim_frame,
                                frame_to_wire, stream_record)

FRAMES = [
    ("alloc", 2, ("echo-client", "echo-server"), 16),
    ("alloc-ok", 2, None, 0),
    ("alloc-err", 4, "no-such-app", 12),
    ("data", 2, Fragment(7, 0, True, b"payload bytes"), 21),
    ("dealloc", 2, None, 0),
]


class TestRoundTrip:
    @pytest.mark.parametrize("frame", FRAMES,
                             ids=[frame[0] for frame in FRAMES])
    def test_shim_frames_round_trip(self, frame):
        kind, flow_id, payload, size = decode_shim_frame(
            frame_to_wire(frame))
        assert (kind, flow_id, size) == (frame[0], frame[1], frame[3])
        if isinstance(frame[2], Fragment):
            assert isinstance(payload, Fragment)
            assert payload.data == frame[2].data
            assert (payload.message_id, payload.index, payload.last) == (
                frame[2].message_id, frame[2].index, frame[2].last)
        else:
            assert payload == frame[2]

    def test_wire_bytes_are_canonical(self):
        # a wire frame is the codec's encoding of the tuple, to the byte
        for frame in FRAMES:
            wired = frame_to_wire(frame)
            assert wired == encode(frame)
            assert frame_to_wire(decode_shim_frame(wired)) == wired

    def test_fragment_codec_round_trip(self):
        fragment = Fragment(3, 1, False, b"\x00\xffmid")
        rebuilt = decode(encode(fragment))
        assert isinstance(rebuilt, Fragment)
        assert (rebuilt.message_id, rebuilt.index, rebuilt.last,
                rebuilt.data) == (3, 1, False, fragment.data)

    def test_live_object_payload_raises_at_sender(self):
        with pytest.raises(WireError, match="cannot encode"):
            frame_to_wire(("data", 2, object(), 8))


class _Int(int):
    """An int subclass: the codec refuses it as a value, packs it as a
    fragment field."""


class _Str(str):
    """A str subclass equal to ``"data"``, which the codec refuses."""


def _general_path(buf):
    """The reference the data-frame pass is held to: the codec's decode
    plus the shim-frame shape check, as :func:`decode_shim_frame` reads
    any frame that is not a well-formed data frame."""
    value = decode(buf)
    if (not isinstance(value, tuple) or len(value) != 4
            or not isinstance(value[0], str)
            or isinstance(value[1], bool) or not isinstance(value[1], int)
            or isinstance(value[3], bool) or not isinstance(value[3], int)
            or value[1] < 0 or not 0 <= value[3] <= MAX_FRAME_BYTES):
        raise WireError(f"not a shim frame: {value!r:.120}")
    return value


def _fields(value):
    """A decoded value with each field's type made explicit, fragments
    opened up, so equal fields means equal to the type."""
    if isinstance(value, Fragment):
        value = ("Fragment", value.message_id, value.index, value.last,
                 value.data)
    if isinstance(value, (tuple, list)):
        return type(value), [_fields(item) for item in value]
    return type(value), value


def _outcome(read, buf):
    try:
        return "frame", _fields(read(buf))
    except WireError as exc:
        return "error", str(exc)


_EDGES = [-1, 0, 1, 2 ** 63 - 1, 2 ** 63, 2 ** 70, -2 ** 63, -2 ** 63 - 1]
_INTS = st.one_of(st.sampled_from(_EDGES), st.integers(),
                  st.sampled_from([True, False, _Int(3), _Int(2 ** 63)]))
_I64 = st.integers(-2 ** 63, 2 ** 63 - 1)
_DATA = st.binary(max_size=40)


@st.composite
def _data_frames(draw):
    """Data frames whose every field may be off the pass's shape: edge
    and big ints, bools and int subclasses, a non-bool ``last``, data
    that is not ``bytes``."""
    data = draw(st.one_of(_DATA, st.sampled_from([bytes(1400),
                                                  bytes(range(256)) * 32])))
    data = draw(st.sampled_from([data, bytearray(data), data.hex()]))
    last = draw(st.one_of(st.booleans(),
                          st.sampled_from([0, 1, 1.0, 2, "T", None])))
    return ("data", draw(_INTS),
            Fragment(draw(_INTS), draw(_INTS), last, data),
            draw(st.one_of(_INTS, st.integers(0, MAX_FRAME_BYTES))))


#: Data frames the shape check accepts: the pass's own shape, plus flow
#: ids past i64 that only the codec's big-int form carries.
_VALID_FRAMES = st.builds(
    lambda flow_id, message_id, index, last, data, size:
    ("data", flow_id, Fragment(message_id, index, last, data), size),
    st.one_of(st.sampled_from([0, 2 ** 63 - 1, 2 ** 63, 2 ** 70]),
              st.integers(min_value=0)),
    _I64, _I64, st.booleans(), _DATA, st.integers(0, MAX_FRAME_BYTES))


def _one_byte_changes(wired, values):
    """Every truncation of ``wired``, then at each offset one mutation
    and one insertion (the offset past the end: an extension), each
    byte drawn from the iterator ``values``."""
    yield from (wired[:cut] for cut in range(len(wired)))
    for at in range(len(wired) + 1):
        if at < len(wired):
            yield wired[:at] + bytes((next(values),)) + wired[at + 1:]
        yield wired[:at] + bytes((next(values),)) + wired[at:]


class TestDataFramePass:
    """A data frame is written and read in one pass of its own; it must
    be the codec, byte for byte and error for error, whatever it is
    handed."""

    @given(_data_frames())
    @settings(max_examples=400, deadline=None)
    def test_encode_is_the_codec(self, frame):
        for value in (frame, list(frame), ("dat",) + frame[1:],
                      (_Str("data"),) + frame[1:]):
            assert _outcome(frame_to_wire, value) == _outcome(encode, value)

    @pytest.mark.parametrize("size", [0, 1400, 8192, MAX_DATA_BYTES])
    def test_full_size_fragments(self, size):
        frame = ("data", 5, Fragment(9, 2, False, bytes(size)), size)
        wired = frame_to_wire(frame)
        assert wired == encode(frame)
        for buf in (wired, wired[:-1], wired + b"\0"):
            assert (_outcome(decode_shim_frame, buf)
                    == _outcome(_general_path, buf))
        frame = frame[:2] + (Fragment(9, 2, False, bytearray(size)), size)
        assert _outcome(frame_to_wire, frame) == _outcome(encode, frame)

    @given(_VALID_FRAMES, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_decode_is_the_general_path(self, frame, rng):
        wired = encode(frame)
        assert frame_to_wire(frame) == wired
        values = iter(lambda: rng.randrange(256), None)
        for buf in [wired, *_one_byte_changes(wired, values)]:
            assert (_outcome(decode_shim_frame, buf)
                    == _outcome(_general_path, buf)), buf

    @pytest.mark.parametrize("frame", [
        ("data", 0, Fragment(0, 0, True, b""), 0),
        ("data", 2 ** 63 - 1, Fragment(-1, 2 ** 63 - 1, False, b"TF"),
         MAX_FRAME_BYTES),
        ("data", 7, Fragment(-2 ** 63, 3, True, b"\xb8\x02"), 21),
    ])
    def test_every_one_byte_change(self, frame):
        """Every truncation, mutation and extension, every byte value."""
        wired = frame_to_wire(frame)
        assert wired == encode(frame)
        for value in range(256):
            for buf in _one_byte_changes(wired, itertools.repeat(value)):
                assert (_outcome(decode_shim_frame, buf)
                        == _outcome(_general_path, buf)), buf


class TestMalformedFrames:
    """What a socket reader calls is ``decode_shim_frame``: the codec's
    one error must come through it unchanged, whatever the bytes."""

    def test_empty_buffer(self):
        with pytest.raises(WireError):
            decode_shim_frame(b"")

    def test_one_byte_header(self):
        with pytest.raises(WireError):
            decode_shim_frame(b"\xb8")

    def test_bad_magic(self):
        buf = bytearray(frame_to_wire(FRAMES[0]))
        buf[0] = 0xB7   # the *batch* magic — close, but not a frame
        with pytest.raises(WireError, match="magic"):
            decode_shim_frame(bytes(buf))

    def test_bad_version(self):
        buf = bytearray(frame_to_wire(FRAMES[0]))
        buf[1] = 99
        with pytest.raises(WireError, match="version"):
            decode_shim_frame(bytes(buf))

    def test_trailing_bytes(self):
        with pytest.raises(WireError, match="trailing"):
            decode_shim_frame(frame_to_wire(FRAMES[0]) + b"x")

    def test_truncated_body(self):
        for frame in FRAMES:
            buf = frame_to_wire(frame)
            for cut in range(2, len(buf)):
                with pytest.raises(WireError):
                    decode_shim_frame(buf[:cut])

    def test_unknown_value_tag(self):
        with pytest.raises(WireError, match="tag"):
            decode_shim_frame(b"\xb8\x02Z")

    @pytest.mark.parametrize("value", [
        "not a tuple",
        42,
        ("data", 2, None),                    # wrong arity
        ("data", 2, None, 0, "extra"),
        (5, 2, None, 0),                      # non-str kind
        ("data", "two", None, 0),             # non-int flow id
        ("data", True, None, 0),              # bool is not a flow id
        ("data", 2, None, "zero"),            # non-int size
        ("data", 2, None, False),
        ("data", -2, None, 9),                # ranges are the peer's claim:
        ("data", 2, None, -1000),             # negative ids and sizes, and a
        ("data", 2, None, 2 ** 70),           # size no wire frame could carry
    ])
    def test_decodable_but_not_a_shim_frame(self, value):
        with pytest.raises(WireError, match="not a shim frame"):
            decode_shim_frame(encode(value))

    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_never_raise_anything_else(self, buf):
        try:
            decode_shim_frame(buf)
        except WireError:
            pass


class TestStreamFraming:
    def test_single_record_round_trip(self):
        unframer = StreamUnframer()
        payload = frame_to_wire(FRAMES[0])
        assert unframer.feed(stream_record(payload)) == [payload]
        assert unframer.buffered == 0

    def test_byte_at_a_time(self):
        unframer = StreamUnframer()
        records = b"".join(stream_record(frame_to_wire(f)) for f in FRAMES)
        out = []
        for index in range(len(records)):
            out.extend(unframer.feed(records[index:index + 1]))
        assert out == [frame_to_wire(f) for f in FRAMES]
        assert unframer.buffered == 0

    def test_coalesced_records_split_apart(self):
        unframer = StreamUnframer()
        records = b"".join(stream_record(frame_to_wire(f)) for f in FRAMES)
        assert unframer.feed(records) == [frame_to_wire(f) for f in FRAMES]

    def test_partial_record_is_buffered(self):
        unframer = StreamUnframer()
        record = stream_record(frame_to_wire(FRAMES[0]))
        assert unframer.feed(record[:-1]) == []
        assert unframer.buffered == len(record) - 1
        assert unframer.feed(record[-1:]) == [frame_to_wire(FRAMES[0])]

    def test_largest_data_frame_fills_one_record(self):
        """The largest fragment a TCP flow states makes a frame of
        exactly the record ceiling: accepted, and one byte more is not."""
        fragment = Fragment(0, 0, True, bytes(MAX_DATA_BYTES))
        wired = frame_to_wire(("data", 2, fragment, fragment.wire_size()))
        assert len(wired) == MAX_FRAME_BYTES
        assert StreamUnframer().feed(stream_record(wired)) == [wired]
        longer = LENGTH_PREFIX.pack(len(wired) + 1) + wired + b"\0"
        with pytest.raises(WireError, match="oversize"):
            StreamUnframer().feed(longer)

    def test_oversize_length_prefix(self):
        unframer = StreamUnframer()
        with pytest.raises(WireError, match="oversize"):
            unframer.feed(LENGTH_PREFIX.pack(MAX_FRAME_BYTES + 1))

    def test_tiny_length_prefix(self):
        unframer = StreamUnframer()
        with pytest.raises(WireError, match="cannot hold"):
            unframer.feed(LENGTH_PREFIX.pack(1))

    def test_zero_length_prefix(self):
        unframer = StreamUnframer()
        with pytest.raises(WireError):
            unframer.feed(LENGTH_PREFIX.pack(0))

    def test_frames_ahead_of_a_bad_prefix_ride_on_the_error(self):
        unframer = StreamUnframer()
        payloads = [frame_to_wire(f) for f in FRAMES[:2]]
        stream = (b"".join(map(stream_record, payloads))
                  + LENGTH_PREFIX.pack(MAX_FRAME_BYTES + 1) + b"tail")
        with pytest.raises(StreamFramingError, match="oversize") as caught:
            unframer.feed(stream)
        assert caught.value.frames == payloads
        # desynchronized for good: the bad prefix stays at the head
        with pytest.raises(StreamFramingError) as again:
            unframer.feed(stream_record(payloads[0]))
        assert again.value.frames == []

    @staticmethod
    def _delivered(chunks, max_frame):
        """(frames delivered, whether the stream was condemned) for one
        way of cutting a byte string into reads."""
        unframer = StreamUnframer(max_frame)
        delivered = []
        for chunk in chunks:
            try:
                delivered += unframer.feed(chunk)
            except StreamFramingError as exc:
                return delivered + exc.frames, True
        return delivered, False

    @given(st.lists(st.binary(min_size=2, max_size=24), max_size=5),
           st.binary(max_size=12),
           st.lists(st.integers(min_value=0, max_value=200), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_delivery_does_not_depend_on_segmentation(self, payloads, tail,
                                                      cuts):
        """Every way of cutting one byte string into reads delivers the
        same frames and reaches the same verdict — in particular
        ``record(A) + garbage`` delivers A whether or not the garbage
        shares A's segment."""
        stream = b"".join(map(stream_record, payloads)) + tail
        bounds = sorted({min(cut, len(stream)) for cut in cuts}
                        | {0, len(stream)})
        chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
        whole = self._delivered([stream], max_frame=32)
        assert self._delivered(chunks, max_frame=32) == whole
        assert self._delivered([stream[i:i + 1] for i in range(len(stream))],
                               max_frame=32) == whole
        assert whole[0][:len(payloads)] == payloads

    def test_oversize_frame_rejected_at_sender(self):
        with pytest.raises(WireError, match="exceeds"):
            stream_record(b"x" * (MAX_FRAME_BYTES + 1))

    @given(st.binary(min_size=4, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_stream_bytes_contained(self, data):
        unframer = StreamUnframer(max_frame=1024)
        try:
            for buf in unframer.feed(data):
                try:
                    decode_shim_frame(buf)
                except WireError:
                    pass
        except WireError:
            pass
