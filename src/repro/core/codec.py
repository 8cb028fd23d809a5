"""The wire codec: the one encoder, live object to bytes in one pass.

Everything that can cross a link has two representations.  In one
engine, a PDU is a live object graph — interned :class:`Address`\\ es,
a :class:`RiepMessage` with its cached size, handler references one hop
up the stack.  At a *cut* (a shard boundary between worker processes,
a gateway socket) none of that may travel: what crosses is the
**encoded form**, a versioned big-endian byte string written straight
from the live value by :func:`encode` and read back by :func:`decode`.
There is no intermediate representation and no second encoder: shard
batches (:mod:`repro.shard.framing`) and gateway records
(:mod:`repro.gateway.wire`) carry these bytes opaquely.

Layout (``q``/``Q`` = signed/unsigned 64-bit, ``I`` = u32, ``flag`` =
``'T'``/``'F'``, ``addr?`` = u8 part count + that many ``Q``, count 0
meaning ``None``)::

    buffer := 0xB8 | version u8 | value
    value  := 'N' | 'T' | 'F'
            | 'i' q                       ints that fit
            | 'I' I + decimal ascii       ints that do not
            | 'd' f64                     bit-exact
            | 's' I + utf8   | 'b' I + bytes
            | '(' I value*   | '[' I value*      tuple, list
            | '{' I (value value)*               dict, sender's key order
            | 'A' addr                           Address (count >= 1)
            | 'f' q q flag I + bytes             Fragment: message id,
                                                 index, last, data
            | 'D' q q q q q Q flag addr? addr? value
                      DataPdu: ttl, priority, src cep, dst cep, seq,
                      payload size, drf (lower case when followed),
                      src, dst, payload
            | 'C' q q q q q q I q* addr? addr? value
                      ControlPdu: ttl, priority, src cep, dst cep, ack
                      seq, credit, sack count, sack, src, dst, kind
            | 'M' q q addr? addr? value
                      ManagementPdu: ttl, priority, src, dst, message
            | 'R' q q Q value value value
                      RiepMessage: invoke id, result, size estimate,
                      opcode, obj, value
            | 'L' q I addr (addr f64)*
                      Lsa: seq, neighbor count, origin, neighbors in
                      ascending address order

Who sends which kind is counted in docs/ARCHITECTURE.md ("The
wire-codec contract at the cut"); kinds without a sender are not here.

The contract, enforced by ``tests/test_codec.py``:

* **round trip** — ``decode(encode(x))`` is equal-valued to ``x`` for
  every kind above; floats are bit-exact, ``bool`` stays ``bool``;
* **canonical bytes** — ``encode(decode(b)) == b`` for every ``b`` that
  :func:`decode` accepts, so fingerprints of encoded traffic are
  meaningful: a big-int text that fits an ``i64`` or is not ``str(n)``,
  a duplicate dict key, unsorted LSA neighbors and a flag byte other
  than ``'T'``/``'F'`` are all refused;
* **one error** — whatever is wrong with a buffer (truncation at any
  offset, a length prefix overrunning it, trailing bytes, an unknown
  tag, nesting past the recursion limit, an unhashable dict key, a
  field of the wrong type, a constructor's own ``ValueError``),
  :func:`decode` raises :class:`WireError` and nothing else; a value
  :func:`encode` does not know raises the same error *at the sender* —
  never a silent pickle — which is the runtime check that no live
  object crosses a cut;
* **size consistency** — a :class:`RiepMessage` carries its size
  estimate across the cut (restored into ``_size_cache``), so a decoded
  PDU's ``wire_size()`` is exactly what the sender's links charged, and
  stays equal when the cache is cleared and the estimate recomputed.

Decoding rebuilds the process-local fast paths: ``Address(*parts)``
lands in the interning table, so decoded addresses hit the identity
fast path in forwarding dicts exactly like locally created ones.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Optional, Tuple

from .delimiting import Fragment
from .names import Address
from .pdu import ControlPdu, DataPdu, ManagementPdu
from .riep import RiepMessage
from .routing import Lsa

MAGIC = 0xB8
VERSION = 2
_HEADER = bytes((MAGIC, VERSION))

#: the tag bytes of the layout above, as the ints indexing a buffer gives
(_NONE, _TRUE, _FALSE, _INT, _BIGINT, _FLOAT, _STR, _BYTES, _TUPLE, _LIST,
 _DICT, _ADDRESS, _FRAGMENT, _DATA, _CONTROL, _MGMT, _RIEP,
 _LSA) = b"NTFiIdsb([{AfDCMRL"

# one struct per fixed-width form, tag included, shared by both
# directions: the encoder packs tag and fields in one call, the decoder
# unpacks from the tag's offset and skips element 0
_S_INT = struct.Struct(">Bq")
_S_FLOAT = struct.Struct(">Bd")
_S_LENGTH = struct.Struct(">BI")        # str, bytes, big int, containers
_S_FRAGMENT = struct.Struct(">BqqcI")
_S_DATA = struct.Struct(">BqqqqqQc")
_S_CONTROL = struct.Struct(">BqqqqqqI")
_S_MGMT = struct.Struct(">Bqq")
_S_RIEP = struct.Struct(">BqqQ")
_S_LSA = struct.Struct(">BqI")
_S_COST = struct.Struct(">d")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_FLAG = {True: b"T", False: b"F"}
_UNFLAG = {b"T": True, b"F": False}
#: DataPdu's (drf, followed): an unfollowed PDU's byte is drf's flag
_DATA_FLAG = {(True, False): b"T", (False, False): b"F",
              (True, True): b"t", (False, True): b"f"}
_DATA_UNFLAG = {byte: flags for flags, byte in _DATA_FLAG.items()}
_CONSTANTS = {_NONE: None, _TRUE: True, _FALSE: False}


class WireError(ValueError):
    """A value that cannot be encoded, or bytes that are not an
    encoding."""


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode(value: Any) -> bytes:
    """The canonical wire bytes of ``value``; :class:`WireError` for
    anything the layout above has no form for."""
    out = [_HEADER]
    try:
        _put(value, out.append)
        return b"".join(out)
    except WireError:
        raise
    except (struct.error, TypeError, ValueError, AttributeError, KeyError,
            RecursionError) as exc:
        # a field the fixed layout cannot hold: a non-int sequence
        # number, a non-bytes fragment, a non-address source...
        raise WireError(f"cannot encode {type(value).__name__} for the "
                        f"wire: {type(exc).__name__}: {exc}") from None


def _address(addr: Optional[Address]) -> bytes:
    if addr is None:
        return b"\0"
    return struct.pack(">B%dQ" % len(addr), len(addr), *addr)


def _put(value: Any, put: Callable[[bytes], None]) -> None:
    kind = type(value)
    if kind is int:
        if _I64_MIN <= value <= _I64_MAX:
            put(_S_INT.pack(_INT, value))
        else:
            text = str(value).encode("ascii")
            put(_S_LENGTH.pack(_BIGINT, len(text)))
            put(text)
    elif kind is str:
        raw = value.encode("utf-8")
        put(_S_LENGTH.pack(_STR, len(raw)))
        put(raw)
    elif kind is tuple or kind is list:
        put(_S_LENGTH.pack(_TUPLE if kind is tuple else _LIST, len(value)))
        for item in value:
            _put(item, put)
    elif value is None:
        put(b"N")
    elif kind is Fragment:
        data = value.data
        if type(data) is not bytes:
            raise WireError(f"fragment data is {type(data).__name__}, "
                            f"not bytes")
        put(_S_FRAGMENT.pack(_FRAGMENT, value.message_id, value.index,
                             _FLAG[value.last], len(data)))
        put(data)
    elif kind is float:
        put(_S_FLOAT.pack(_FLOAT, value))
    elif kind is bytes:
        put(_S_LENGTH.pack(_BYTES, len(value)))
        put(value)
    elif kind is bool:
        put(_FLAG[value])
    elif kind is dict:
        put(_S_LENGTH.pack(_DICT, len(value)))
        for key, item in value.items():
            _put(key, put)
            _put(item, put)
    elif kind is ManagementPdu:
        put(_S_MGMT.pack(_MGMT, value.ttl, value.priority))
        put(_address(value.src_addr))
        put(_address(value.dst_addr))
        _put(value.message, put)
    elif kind is RiepMessage:
        # the size estimate crosses with the message: a decoded copy
        # must charge the links exactly what the original did
        put(_S_RIEP.pack(_RIEP, value.invoke_id, value.result,
                         value.estimate_size()))
        _put(value.opcode, put)
        _put(value.obj, put)
        _put(value.value, put)
    elif kind is ControlPdu:
        sack = value.sack
        put(_S_CONTROL.pack(_CONTROL, value.ttl, value.priority,
                            value.src_cep, value.dst_cep, value.ack_seq,
                            value.credit, len(sack)))
        put(struct.pack(">%dq" % len(sack), *sack))
        put(_address(value.src_addr))
        put(_address(value.dst_addr))
        _put(value.kind, put)
    elif kind is DataPdu:
        put(_S_DATA.pack(_DATA, value.ttl, value.priority, value.src_cep,
                         value.dst_cep, value.seq, value.payload_size,
                         _DATA_FLAG[value.drf, value.followed]))
        put(_address(value.src_addr))
        put(_address(value.dst_addr))
        _put(value.payload, put)
    elif kind is Address:
        put(b"A")
        put(_address(value))
    elif kind is Lsa:
        neighbors = sorted(value.neighbors.items())
        put(_S_LSA.pack(_LSA, value.seq, len(neighbors)))
        put(_address(value.origin))
        for addr, cost in neighbors:
            put(_address(addr))
            put(_S_COST.pack(cost))
    else:
        raise WireError(
            f"cannot encode {kind.__name__} for the wire: only PDUs, RIEP "
            f"messages, LSAs, fragments, addresses and JSON-like values "
            f"may cross a cut")


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def decode(buf: bytes) -> Any:
    """Rebuild the live value of an :func:`encode` buffer (interning
    addresses, restoring size caches).

    Raises :class:`WireError` for any buffer :func:`encode` could not
    have produced — never anything else, so a socket reader has one
    failure mode to contain."""
    try:
        if buf[0] != MAGIC:
            raise WireError(f"bad wire magic 0x{buf[0]:02x}")
        if buf[1] != VERSION:
            raise WireError(f"unsupported wire version {buf[1]}")
        value, pos = _get(buf, 2)
    except WireError:
        raise
    except (struct.error, IndexError, KeyError, TypeError, ValueError,
            RecursionError) as exc:   # ValueError covers UnicodeDecodeError
        raise WireError(f"truncated or malformed wire buffer: "
                        f"{type(exc).__name__}: {exc}") from None
    if pos != len(buf):
        raise WireError(f"wire buffer has {len(buf) - pos} trailing byte(s)")
    return value


def _sized(buf: bytes, pos: int) -> Tuple[int, int]:
    """``(start, end)`` of the u32-length-prefixed slice behind the tag
    at ``pos - 1``, which must lie wholly inside the buffer: a plain
    slice past the end would come back silently short."""
    start = pos + 4
    end = start + _S_LENGTH.unpack_from(buf, pos - 1)[1]
    if end > len(buf):
        raise WireError(f"length prefix at offset {pos} overruns the "
                        f"buffer by {end - len(buf)} byte(s)")
    return start, end


def _address_at(buf: bytes, pos: int, optional: bool = False
                ) -> Tuple[Optional[Address], int]:
    count = buf[pos]
    if not count:
        if optional:
            return None, pos + 1
        raise WireError(f"address with no components at offset {pos}")
    return (Address(*struct.unpack_from(">%dQ" % count, buf, pos + 1)),
            pos + 1 + 8 * count)


def _text(value: Any, what: str) -> str:
    if type(value) is not str:
        raise WireError(f"{what} is {type(value).__name__}, not str")
    return value


def _get(buf: bytes, pos: int) -> Tuple[Any, int]:
    # every fixed-width read goes through ``unpack_from``, which refuses
    # a short buffer (as indexing refuses a missing tag byte)
    tag = buf[pos]
    pos += 1
    if tag == _INT:
        return _S_INT.unpack_from(buf, pos - 1)[1], pos + 8
    if tag == _STR:
        start, end = _sized(buf, pos)
        return str(buf[start:end], "utf-8"), end
    if tag == _TUPLE or tag == _LIST:
        count = _S_LENGTH.unpack_from(buf, pos - 1)[1]
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _get(buf, pos)
            items.append(item)
        return (tuple(items) if tag == _TUPLE else items), pos
    if tag in _CONSTANTS:
        return _CONSTANTS[tag], pos
    if tag == _FRAGMENT:
        _tag, message_id, index, last, length = _S_FRAGMENT.unpack_from(
            buf, pos - 1)
        start = pos - 1 + _S_FRAGMENT.size
        end = start + length
        if end > len(buf):
            raise WireError(f"fragment data at offset {start} overruns the "
                            f"buffer by {end - len(buf)} byte(s)")
        return Fragment(message_id, index, _UNFLAG[last],
                        bytes(buf[start:end])), end
    if tag == _FLOAT:
        return _S_FLOAT.unpack_from(buf, pos - 1)[1], pos + 8
    if tag == _BYTES:
        start, end = _sized(buf, pos)
        return bytes(buf[start:end]), end
    if tag == _DICT:
        count = _S_LENGTH.unpack_from(buf, pos - 1)[1]
        pos += 4
        items = {}
        for _ in range(count):
            key, pos = _get(buf, pos)
            items[key], pos = _get(buf, pos)   # unhashable: TypeError
        if len(items) != count:
            raise WireError("duplicate dict key")
        return items, pos
    if tag == _MGMT:
        _tag, ttl, priority = _S_MGMT.unpack_from(buf, pos - 1)
        src, pos = _address_at(buf, pos - 1 + _S_MGMT.size, True)
        dst, pos = _address_at(buf, pos, True)
        message, pos = _get(buf, pos)
        return ManagementPdu(src, dst, message, ttl=ttl,
                             priority=priority), pos
    if tag == _RIEP:
        _tag, invoke_id, result, size = _S_RIEP.unpack_from(buf, pos - 1)
        opcode, pos = _get(buf, pos - 1 + _S_RIEP.size)
        obj, pos = _get(buf, pos)
        value, pos = _get(buf, pos)
        message = RiepMessage(_text(opcode, "RIEP opcode"),
                              obj=_text(obj, "RIEP object name"),
                              value=value, invoke_id=invoke_id,
                              result=result)
        message._size_cache = size
        return message, pos
    if tag == _CONTROL:
        (_tag, ttl, priority, src_cep, dst_cep, ack_seq, credit,
         count) = _S_CONTROL.unpack_from(buf, pos - 1)
        pos += _S_CONTROL.size - 1
        sack = struct.unpack_from(">%dq" % count, buf, pos)
        src, pos = _address_at(buf, pos + 8 * count, True)
        dst, pos = _address_at(buf, pos, True)
        kind, pos = _get(buf, pos)
        return ControlPdu(src, dst, _text(kind, "control PDU kind"),
                          src_cep, dst_cep, ack_seq=ack_seq, credit=credit,
                          sack=sack, ttl=ttl, priority=priority), pos
    if tag == _DATA:
        (_tag, ttl, priority, src_cep, dst_cep, seq, payload_size,
         flags) = _S_DATA.unpack_from(buf, pos - 1)
        drf, followed = _DATA_UNFLAG[flags]
        src, pos = _address_at(buf, pos - 1 + _S_DATA.size, True)
        dst, pos = _address_at(buf, pos, True)
        payload, pos = _get(buf, pos)
        return DataPdu(src, dst, src_cep, dst_cep, seq, payload,
                       payload_size, drf=drf, ttl=ttl, priority=priority,
                       followed=followed), pos
    if tag == _ADDRESS:
        return _address_at(buf, pos)
    if tag == _BIGINT:
        start, end = _sized(buf, pos)
        text = str(buf[start:end], "ascii")
        value = int(text)
        if str(value) != text or _I64_MIN <= value <= _I64_MAX:
            raise WireError(f"non-canonical big-int text {text!r:.40}")
        return value, end
    if tag == _LSA:
        _tag, seq, count = _S_LSA.unpack_from(buf, pos - 1)
        origin, pos = _address_at(buf, pos - 1 + _S_LSA.size)
        neighbors = {}
        previous = None
        for _ in range(count):
            addr, pos = _address_at(buf, pos)
            if previous is not None and not previous < addr:
                raise WireError("LSA neighbors out of address order")
            neighbors[addr] = _S_COST.unpack_from(buf, pos)[0]
            previous = addr
            pos += 8
        return Lsa(origin, seq, neighbors), pos
    raise WireError(f"unknown wire tag {bytes((tag,))!r} at offset "
                    f"{pos - 1}")


def roundtrip_rows(samples: Tuple[bytes, ...]) -> list:
    """Sweeps job target: decode→re-encode each encoded PDU sample and
    report stability (run under ``spawn`` by ``tests/test_codec.py`` to
    prove the round trip holds in a fresh interpreter, where nothing —
    interned addresses included — is inherited from the parent)."""
    import os
    rows = []
    for index, data in enumerate(samples):
        value = decode(data)
        rows.append({"index": index, "stable": encode(value) == data,
                     "size": value.wire_size(),
                     "pid": os.getpid()})
    return rows
