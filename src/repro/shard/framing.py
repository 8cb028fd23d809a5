"""Flat-byte transport for boundary-frame batches.

The coordinator↔worker step protocol moves lists of
:data:`~repro.shard.engine.BoundaryFrame` tuples.  Pickling those lists
works, but it serializes frame-by-frame through a general object
protocol, and it ties the wire format of the cut to whatever pickle
decides to emit.  This module packs a whole round's frames for one
direction into **one flat byte buffer** with an explicit, versioned
layout — the frame analogue of :mod:`repro.core.codec`'s canonical
tagged-tuple forms, flattened to bytes.

Layout (big-endian)::

    batch   := magic u8 | version u8 | count u32 | frame*
    frame   := arrival f64 | link u16+utf8 | size u32 | value
    value   := 'N' | 'T' | 'F'
             | 'i' i64            (machine-width ints)
             | 'I' u32+ascii      (arbitrary-precision ints)
             | 'd' f64            (bit-exact: struct '>d' round-trips
                                   every finite float and preserves the
                                   timestamps the equivalence tests pin)
             | 's' u32+utf8
             | 'b' u32+bytes
             | '(' u32 value*     (the codec's tagged tuples)

Only wire data (scalars + tuples, :func:`repro.core.codec.is_wire_data`)
can appear in a frame payload, so these seven value forms are total;
anything else raises :class:`FrameFormatError` at the sender, which is
how "no live object crosses a cut" is checked at runtime.  The batch is
self-delimiting, so it needs no out-of-band framing.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, List, Tuple

_MAGIC = 0xB7
_VERSION = 1

_HEAD = struct.Struct(">BBI")
_FRAME_HEAD = struct.Struct(">dHI")   # arrival, link-name length, size
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class FrameFormatError(ValueError):
    """A buffer that is not a well-formed frame batch."""


def _pack_value(value: Any, out: List[bytes]) -> None:
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif type(value) is int:
        if _I64_MIN <= value <= _I64_MAX:
            out.append(b"i")
            out.append(_I64.pack(value))
        else:
            text = str(value).encode("ascii")
            out.append(b"I")
            out.append(_U32.pack(len(text)))
            out.append(text)
    elif type(value) is float:
        out.append(b"d")
        out.append(_F64.pack(value))
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(b"s")
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    elif type(value) is bytes:
        out.append(b"b")
        out.append(_U32.pack(len(value)))
        out.append(value)
    elif type(value) is tuple:
        out.append(b"(")
        out.append(_U32.pack(len(value)))
        for item in value:
            _pack_value(item, out)
    else:
        raise FrameFormatError(
            f"frame payload holds a live {type(value).__name__}; only "
            f"wire data (scalars and tuples) may cross a cut")


def _overrun(pos: int, end: int, size: int) -> FrameFormatError:
    """A length-prefixed slice must lie wholly inside the buffer: a
    plain slice past the end would come back silently short."""
    return FrameFormatError(f"length prefix at offset {pos} overruns the "
                            f"buffer by {end - size} byte(s)")


def _unpack_value(buf: bytes, pos: int) -> Tuple[Any, int]:
    # the three length-prefixed forms repeat their bounds check inline:
    # a shared helper costs a call per string, ~13 % of a batch unpack
    tag = buf[pos:pos + 1]
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag == b"i":
        return _I64.unpack_from(buf, pos)[0], pos + 8
    if tag == b"I":
        end = pos + 4 + _U32.unpack_from(buf, pos)[0]
        if end > len(buf):
            raise _overrun(pos, end, len(buf))
        return int(buf[pos + 4:end].decode("ascii")), end
    if tag == b"d":
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == b"s":
        end = pos + 4 + _U32.unpack_from(buf, pos)[0]
        if end > len(buf):
            raise _overrun(pos, end, len(buf))
        return buf[pos + 4:end].decode("utf-8"), end
    if tag == b"b":
        end = pos + 4 + _U32.unpack_from(buf, pos)[0]
        if end > len(buf):
            raise _overrun(pos, end, len(buf))
        return bytes(buf[pos + 4:end]), end
    if tag == b"(":
        count = _U32.unpack_from(buf, pos)[0]
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _unpack_value(buf, pos)
            items.append(item)
        return tuple(items), pos
    raise FrameFormatError(f"unknown value tag {tag!r} at offset {pos - 1}")


def pack_frames(frames: List[Tuple[float, str, Any, int]]) -> bytes:
    """One round's frames for one direction as a single flat buffer."""
    out: List[bytes] = [_HEAD.pack(_MAGIC, _VERSION, len(frames))]
    for arrival, link_name, payload, size in frames:
        raw_name = link_name.encode("utf-8")
        out.append(_FRAME_HEAD.pack(arrival, len(raw_name), size))
        out.append(raw_name)
        _pack_value(payload, out)
    return b"".join(out)


def _unpack_guarded(body: Callable[[bytes], Tuple[Any, int]], buf: bytes,
                    what: str) -> Any:
    """Run one unpacker ``body(buf) -> (value, end)`` under the error
    contract both formats share: whatever is wrong with ``buf``, the
    caller sees :class:`FrameFormatError` and nothing else."""
    try:
        value, pos = body(buf)
    except FrameFormatError:
        raise
    except (struct.error, IndexError, UnicodeDecodeError, ValueError,
            RecursionError) as exc:   # the last: tuples nested too deep
        raise FrameFormatError(
            f"truncated or malformed {what}: {exc}") from None
    if pos != len(buf):
        raise FrameFormatError(
            f"{what} has {len(buf) - pos} trailing byte(s)")
    return value


def _batch_body(buf: bytes) -> Tuple[List[Tuple[float, str, Any, int]], int]:
    magic, version, count = _HEAD.unpack_from(buf, 0)
    if magic != _MAGIC:
        raise FrameFormatError(f"bad frame-batch magic 0x{magic:02x}")
    if version != _VERSION:
        raise FrameFormatError(f"unsupported frame-batch version {version}")
    pos = _HEAD.size
    frames = []
    for _ in range(count):
        arrival, name_length, size = _FRAME_HEAD.unpack_from(buf, pos)
        pos += _FRAME_HEAD.size
        end = pos + name_length
        if end > len(buf):
            raise FrameFormatError(
                f"link name at offset {pos} overruns the buffer")
        link_name = buf[pos:end].decode("utf-8")
        payload, pos = _unpack_value(buf, end)
        frames.append((arrival, link_name, payload, size))
    return frames, pos


def unpack_frames(buf: bytes) -> List[Tuple[float, str, Any, int]]:
    """Decode a :func:`pack_frames` buffer back to boundary frames.

    Raises :class:`FrameFormatError` for any buffer :func:`pack_frames`
    could not have produced — never anything else."""
    return _unpack_guarded(_batch_body, buf, "frame batch")


#: Header byte distinguishing a *single-value* gateway frame from a
#: frame batch (0xB7).  Both formats share the value grammar above.
_FRAME_MAGIC = 0xB8

_FRAME_HEADER = struct.Struct(">BB")


def pack_frame(value: Any) -> bytes:
    """One wire value as a self-contained flat buffer.

    The live-traffic gateway sends exactly one shim frame per network
    message (one UDP datagram, or one length-prefixed TCP record), so
    it needs the value grammar without the batch header.  Live objects
    raise :class:`FrameFormatError`, same as :func:`pack_frames` — run
    payloads through :func:`repro.core.codec.encode` first.
    """
    out: List[bytes] = [_FRAME_HEADER.pack(_FRAME_MAGIC, _VERSION)]
    _pack_value(value, out)
    return b"".join(out)


def _frame_body(buf: bytes) -> Tuple[Any, int]:
    magic, version = _FRAME_HEADER.unpack_from(buf, 0)
    if magic != _FRAME_MAGIC:
        raise FrameFormatError(f"bad frame magic 0x{magic:02x}")
    if version != _VERSION:
        raise FrameFormatError(f"unsupported frame version {version}")
    return _unpack_value(buf, _FRAME_HEADER.size)


def unpack_frame(buf: bytes) -> Any:
    """Decode a :func:`pack_frame` buffer back to its wire value.

    Raises :class:`FrameFormatError` on a bad magic byte, an
    unsupported version, a truncated body, or trailing bytes — never
    anything else, so socket readers can treat any malformed input
    uniformly (count it, close the connection).
    """
    return _unpack_guarded(_frame_body, buf, "frame")
