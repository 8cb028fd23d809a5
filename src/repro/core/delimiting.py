"""SDU delimiting: application messages ↔ transport-sized fragments.

Applications hand the IPC API messages of arbitrary size; EFCP moves
PDU-sized SDUs.  Delimiting sits between them: the :class:`Delimiter`
splits each message into fragments no larger than ``max_fragment``, and the
:class:`Reassembler` rebuilds messages at the far end, tolerating loss on
unreliable flows by discarding incomplete messages.
"""

from __future__ import annotations

from typing import List, Optional

from .flow import MAX_SDU_BYTES

#: Per-fragment delimiting header: message id, fragment index, flags, length.
FRAGMENT_HEADER_BYTES = 8


class Fragment:
    """One delimited piece of an application message."""

    __slots__ = ("message_id", "index", "last", "data")

    def __init__(self, message_id: int, index: int, last: bool, data: bytes) -> None:
        self.message_id = message_id
        self.index = index
        self.last = last
        self.data = data

    def wire_size(self) -> int:
        """Size of the fragment as an EFCP SDU."""
        return FRAGMENT_HEADER_BYTES + len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tail = "L" if self.last else ""
        return f"<Fragment m{self.message_id}#{self.index}{tail} {len(self.data)}B>"


class Delimiter:
    """Splits messages into :class:`Fragment` objects."""

    def __init__(self, max_fragment: int = MAX_SDU_BYTES) -> None:
        if max_fragment < 1:
            raise ValueError("max_fragment must be at least 1 byte")
        self.max_fragment = max_fragment
        self._next_message_id = 0

    def delimit(self, message: bytes) -> List[Fragment]:
        """Fragment one message; empty messages yield one empty fragment."""
        message_id = self._next_message_id
        self._next_message_id += 1
        if type(message) is bytes and len(message) <= self.max_fragment:
            return [Fragment(message_id, 0, True, message)]   # no copy: immutable
        if not message:
            return [Fragment(message_id, 0, True, b"")]
        pieces = [message[i:i + self.max_fragment]
                  for i in range(0, len(message), self.max_fragment)]
        return [Fragment(message_id, index, index == len(pieces) - 1, piece)
                for index, piece in enumerate(pieces)]


class Reassembler:
    """Rebuilds messages from fragments.

    Fragments of a message are expected in index order within the message
    (EFCP in-order flows guarantee this; unreliable flows may lose
    fragments, in which case the partially assembled message is discarded
    when a fragment of a newer message arrives).
    """

    def __init__(self) -> None:
        self._current_id: Optional[int] = None
        self._parts: List[bytes] = []
        self._next_index = 0
        self.messages_discarded = 0

    def push(self, fragment: Fragment) -> Optional[bytes]:
        """Feed one fragment; returns a completed message or None."""
        if self._current_id is not None and fragment.message_id != self._current_id:
            # a new message began before the old one finished: drop the old
            self.messages_discarded += 1
            self._reset()
        if self._current_id is None:
            if fragment.index != 0:
                # middle of a message whose head was lost
                self.messages_discarded += 1
                return None
            if fragment.last and type(fragment.data) is bytes:
                return fragment.data   # a lone fragment is the message
            self._current_id = fragment.message_id
        if fragment.index != self._next_index:
            # gap within the current message
            self.messages_discarded += 1
            self._reset()
            return None
        self._parts.append(fragment.data)
        self._next_index += 1
        if fragment.last:
            message = b"".join(self._parts)
            self._reset()
            return message
        return None

    def _reset(self) -> None:
        self._current_id = None
        self._parts = []
        self._next_index = 0
