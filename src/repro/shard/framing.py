"""The batch envelope: one round's boundary frames as one flat buffer.

The coordinator↔worker step protocol moves lists of
:data:`~repro.shard.engine.BoundaryFrame` tuples ``(arrival, link
name, payload bytes, size)`` whose payload is already wire bytes
(:func:`repro.core.codec.encode`, run by the sending
:class:`~repro.shard.engine.BoundaryHalf`).  A whole round for one
direction is a single ``send_bytes`` of *one more codec value*: the
list of those tuples.  That buys the envelope everything the codec
already guarantees — a versioned header, a self-delimiting layout,
``arrival`` bit-exact as an f64 (which keeps cross-process delivery
times identical to the unsharded build), one error type — with no
second format.  A payload is a length-prefixed ``bytes`` value inside
it, opaque: the coordinator routes on the link name and never re-walks
bytes it only forwards.

What this module adds is the shape of a batch, checked in both
directions: a payload that is not ``bytes`` raises
:class:`~repro.core.codec.WireError` at the sender — without the check
a live tuple would simply be encoded as a nested value, and the outbox
invariant ``type(payload) is bytes`` would stop being checked at
runtime.
"""

from __future__ import annotations

from typing import List

from ..core.codec import WireError, decode, encode
from .engine import BoundaryFrame

_FRAME_TYPES = (float, str, bytes, int)


def _checked(frames: List[BoundaryFrame]) -> List[BoundaryFrame]:
    if type(frames) is not list:
        raise WireError(f"not a frame batch: {type(frames).__name__}")
    for frame in frames:
        if (type(frame) is not tuple
                or tuple(map(type, frame)) != _FRAME_TYPES):
            raise WireError(
                f"not a boundary frame (arrival float, link str, payload "
                f"bytes, size int) - a live payload? {frame!r:.120}")
    return frames


def pack_frames(frames: List[BoundaryFrame]) -> bytes:
    """One round's frames for one direction as a single flat buffer."""
    return encode(_checked(frames))


def unpack_frames(buf: bytes) -> List[BoundaryFrame]:
    """Decode a :func:`pack_frames` buffer back to boundary frames.

    Raises :class:`~repro.core.codec.WireError` for any buffer
    :func:`pack_frames` could not have produced — never anything else."""
    return _checked(decode(buf))
