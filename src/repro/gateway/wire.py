"""Byte-level frame layer of the gateway.

One shim frame crosses the network as one *wire frame*: the frame tuple
run through :func:`repro.core.codec.encode`, nothing added.  UDP
carries one wire frame per datagram; TCP prefixes each with a u32
length (:class:`StreamUnframer` is the inverse, shared by the asyncio
protocol and the fuzz tests).  What this module owns is the gateway's
own: the shim-frame shape check and the TCP record framing.  A data
frame, nearly all the traffic, is written and read in one pass that is
byte-equal to the codec and leaves every error the codec's path
(``tests/test_gateway_wire.py::TestDataFramePass``).

Every way a peer can hand us garbage — truncated header, bad magic or
version, trailing bytes, an oversize length prefix, a decodable value
that is not a shim frame — is a :class:`~repro.core.codec.WireError`,
so socket readers have exactly one failure mode to contain: count it
and close the connection.
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple

from ..core.codec import (_FLAG, _FRAGMENT, _INT, _S_FRAGMENT, _S_INT,
                          _UNFLAG, WireError, decode, encode)
from ..core.delimiting import Fragment

#: Ceiling on a single wire frame (and therefore on the TCP length
#: prefix), so on one TCP message in either direction; a length near it
#: is an attack or a desynchronized stream, not traffic.
MAX_FRAME_BYTES = 1 << 20

#: TCP record framing: u32 big-endian payload length.
LENGTH_PREFIX = struct.Struct(">I")

ShimFrame = Tuple[str, int, Any, int]

# The data frame as the codec lays it out: constant prefix (the three
# ``None`` placeholders stripped), flow id and fragment header, data, size.
_DATA_PREFIX = encode(("data", None, None, None))[:-3]
_S_DATA_HEAD = struct.Struct(">%ds" % len(_DATA_PREFIX) + _S_INT.format[1:]
                             + _S_FRAGMENT.format[1:])
#: The most data a data frame within MAX_FRAME_BYTES carries: TCP's SDU.
MAX_DATA_BYTES = MAX_FRAME_BYTES - _S_DATA_HEAD.size - _S_INT.size


def frame_to_wire(frame: ShimFrame) -> bytes:
    """One live shim frame as the codec's bytes: strict, loud at the sender."""
    if type(frame) is tuple and len(frame) == 4:
        kind, flow_id, fragment, size = frame
        if (type(fragment) is Fragment and type(kind) is str
                and kind == "data" and type(fragment.data) is bytes
                and type(fragment.last) is bool
                and type(flow_id) is type(size) is type(fragment.index)
                is type(fragment.message_id) is int):
            try:
                return b"".join((_S_DATA_HEAD.pack(
                    _DATA_PREFIX, _INT, flow_id, _FRAGMENT,
                    fragment.message_id, fragment.index, _FLAG[fragment.last],
                    len(fragment.data)), fragment.data,
                    _S_INT.pack(_INT, size)))
            except struct.error:    # an int outside i64: the codec decides
                pass
    return encode(frame)


def decode_shim_frame(buf: bytes) -> ShimFrame:
    """Decode and *shape-check* a shim frame off the wire.

    The shim dispatch (:meth:`~repro.core.shim.ShimIpcp._on_frame`)
    unpacks ``kind, flow_id, payload, size`` positionally; a decodable
    value of any other shape must be rejected here, not explode inside
    the engine.  ``flow_id`` and ``size`` are the peer's claims and feed
    the flow tables and byte counters, so their range is checked too: a
    size no wire frame could carry is as malformed as a wrong type.
    """
    if len(buf) >= _S_DATA_HEAD.size + _S_INT.size:
        (prefix, int_tag, flow_id, fragment_tag, message_id, index, flag,
         length) = _S_DATA_HEAD.unpack_from(buf)
        end = len(buf) - _S_INT.size
        size_tag, size = _S_INT.unpack_from(buf, end)
        if (prefix == _DATA_PREFIX and end == _S_DATA_HEAD.size + length
                and int_tag == size_tag == _INT and fragment_tag == _FRAGMENT
                and flag in _UNFLAG and flow_id >= 0
                and 0 <= size <= MAX_FRAME_BYTES):
            data = bytes(buf[_S_DATA_HEAD.size:end])
            return "data", flow_id, Fragment(message_id, index,
                                             _UNFLAG[flag], data), size
    value = decode(buf)
    if (not isinstance(value, tuple) or len(value) != 4
            or not isinstance(value[0], str)
            or isinstance(value[1], bool) or not isinstance(value[1], int)
            or isinstance(value[3], bool) or not isinstance(value[3], int)
            or value[1] < 0 or not 0 <= value[3] <= MAX_FRAME_BYTES):
        raise WireError(f"not a shim frame: {value!r:.120}")
    return value


def stream_record(buf: bytes) -> bytes:
    """``buf`` as one length-prefixed TCP record."""
    if len(buf) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(buf)} bytes exceeds "
                        f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})")
    return LENGTH_PREFIX.pack(len(buf)) + buf


class StreamFramingError(WireError):
    """A length prefix that cannot be a frame.

    ``frames`` holds the complete frames that preceded it in the same
    :meth:`StreamUnframer.feed`: they arrived intact, so the reader
    delivers them before it closes the connection — what a peer gets
    delivered never depends on how TCP cut the stream into segments.
    """

    def __init__(self, message: str, frames: List[bytes]) -> None:
        super().__init__(message)
        self.frames = frames


class StreamUnframer:
    """Incremental parser for the length-prefixed TCP stream.

    ``feed(data)`` returns the complete wire frames the new bytes
    finished, buffering any tail.  A length prefix that cannot be a
    frame (oversize, or too short to hold the 2-byte frame header)
    raises :class:`StreamFramingError` carrying the frames completed
    ahead of it — the stream is desynchronized and the connection must
    close; no resynchronization is attempted (the bad prefix stays at
    the head of the buffer, so every later ``feed`` raises again).
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self._max_frame = max_frame
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[bytes]:
        self._buf += data
        frames: List[bytes] = []
        buf = self._buf
        while len(buf) >= LENGTH_PREFIX.size:
            (length,) = LENGTH_PREFIX.unpack_from(buf, 0)
            if length > self._max_frame:
                raise StreamFramingError(
                    f"oversize length prefix: {length} bytes "
                    f"(max {self._max_frame})", frames)
            if length < 2:
                raise StreamFramingError(
                    f"length prefix {length} cannot hold a frame header",
                    frames)
            end = LENGTH_PREFIX.size + length
            if len(buf) < end:
                break
            frames.append(bytes(buf[LENGTH_PREFIX.size:end]))
            del buf[:end]
        return frames

    @property
    def buffered(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._buf)
