"""Byte-level frame layer of the gateway.

One shim frame crosses the network as one *wire frame*: the frame tuple
run through :func:`repro.core.codec.encode`, nothing added.  UDP
carries one wire frame per datagram; TCP prefixes each with a u32
length (:class:`StreamUnframer` is the inverse, shared by the asyncio
protocol and the fuzz tests).  What this module owns is the gateway's
own: the shim-frame shape check and the TCP record framing.

Every way a peer can hand us garbage — truncated header, bad magic or
version, trailing bytes, an oversize length prefix, a decodable value
that is not a shim frame — is a :class:`~repro.core.codec.WireError`,
so socket readers have exactly one failure mode to contain: count it
and close the connection.
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple

from ..core.codec import WireError, decode, encode

#: Ceiling on a single wire frame (and therefore on the TCP length
#: prefix).  Shim frames are small — a data frame tops out around one
#: delimiting fragment (~1.4 KB) plus headers — so anything near this
#: is an attack or a desynchronized stream, not traffic.
MAX_FRAME_BYTES = 1 << 20

#: TCP record framing: u32 big-endian payload length.
LENGTH_PREFIX = struct.Struct(">I")

ShimFrame = Tuple[str, int, Any, int]


#: One live shim frame as its wire bytes: the codec's encoding itself
#: (strict — a payload it does not know raises at the sender, loudly).
frame_to_wire = encode


def decode_shim_frame(buf: bytes) -> ShimFrame:
    """Decode and *shape-check* a shim frame off the wire.

    The shim dispatch (:meth:`~repro.core.shim.ShimIpcp._on_frame`)
    unpacks ``kind, flow_id, payload, size`` positionally; a decodable
    value of any other shape must be rejected here, not explode inside
    the engine.  ``flow_id`` and ``size`` are the peer's claims and feed
    the flow tables and byte counters, so their range is checked too: a
    size no wire frame could carry is as malformed as a wrong type.
    """
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
