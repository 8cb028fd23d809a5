"""Unit tests for SDU delimiting."""

import pytest
from hypothesis import given, strategies as st

from repro.core.delimiting import (FRAGMENT_HEADER_BYTES, Delimiter, Fragment,
                                   Reassembler)


class TestDelimiter:
    def test_small_message_is_one_fragment(self):
        fragments = Delimiter(max_fragment=100).delimit(b"hello")
        assert len(fragments) == 1
        assert fragments[0].last
        assert fragments[0].data == b"hello"

    def test_large_message_fragments_at_boundary(self):
        fragments = Delimiter(max_fragment=10).delimit(b"x" * 25)
        assert [len(f.data) for f in fragments] == [10, 10, 5]
        assert [f.index for f in fragments] == [0, 1, 2]
        assert [f.last for f in fragments] == [False, False, True]

    def test_exact_multiple_has_no_empty_tail(self):
        fragments = Delimiter(max_fragment=10).delimit(b"x" * 20)
        assert [len(f.data) for f in fragments] == [10, 10]

    def test_empty_message_yields_one_empty_fragment(self):
        fragments = Delimiter().delimit(b"")
        assert len(fragments) == 1
        assert fragments[0].last and fragments[0].data == b""

    def test_message_ids_increase(self):
        delimiter = Delimiter()
        first = delimiter.delimit(b"a")[0].message_id
        second = delimiter.delimit(b"b")[0].message_id
        assert second == first + 1

    def test_wire_size_includes_header(self):
        fragment = Fragment(0, 0, True, b"12345")
        assert fragment.wire_size() == FRAGMENT_HEADER_BYTES + 5

    def test_invalid_max_fragment(self):
        with pytest.raises(ValueError):
            Delimiter(max_fragment=0)


class TestReassembler:
    def test_roundtrip_single(self):
        delimiter, reassembler = Delimiter(max_fragment=8), Reassembler()
        outputs = [reassembler.push(f) for f in delimiter.delimit(b"payload!" * 4)]
        assert outputs[-1] == b"payload!" * 4
        assert all(o is None for o in outputs[:-1])

    @given(st.lists(st.binary(max_size=300), min_size=1, max_size=10),
           st.integers(min_value=1, max_value=64))
    def test_property_roundtrip_many_messages(self, messages, max_fragment):
        delimiter = Delimiter(max_fragment=max_fragment)
        reassembler = Reassembler()
        received = []
        for message in messages:
            for fragment in delimiter.delimit(message):
                result = reassembler.push(fragment)
                if result is not None:
                    received.append(result)
        assert received == messages

    def test_missing_head_discards(self):
        delimiter, reassembler = Delimiter(max_fragment=4), Reassembler()
        fragments = delimiter.delimit(b"abcdefgh")
        assert reassembler.push(fragments[1]) is None
        assert reassembler.messages_discarded == 1

    def test_gap_in_middle_discards_message(self):
        delimiter, reassembler = Delimiter(max_fragment=4), Reassembler()
        fragments = delimiter.delimit(b"abcdefghijkl")
        reassembler.push(fragments[0])
        assert reassembler.push(fragments[2]) is None
        assert reassembler.messages_discarded == 1

    def test_new_message_preempts_incomplete_one(self):
        delimiter, reassembler = Delimiter(max_fragment=4), Reassembler()
        first = delimiter.delimit(b"abcdefgh")
        second = delimiter.delimit(b"wxyz")
        reassembler.push(first[0])            # incomplete
        result = reassembler.push(second[0])  # new message begins
        assert result == b"wxyz"
        assert reassembler.messages_discarded == 1

    def test_recovers_after_discard(self):
        delimiter, reassembler = Delimiter(max_fragment=4), Reassembler()
        lost = delimiter.delimit(b"abcdefgh")
        reassembler.push(lost[0])
        result = None
        for fragment in delimiter.delimit(b"hello"):
            result = reassembler.push(fragment)
        assert result == b"hello"
