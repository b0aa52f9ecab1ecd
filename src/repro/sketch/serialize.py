"""Compact serialization of sketch state — the wire protocol.

Two places genuinely need bytes rather than word counts:

* the Theorem 4 communication game — Alice's *message* is the
  algorithm's state, and its length in bits is the quantity the lower
  bound speaks about;
* the distributed setting — servers ship sketch states to a coordinator
  (:mod:`repro.stream.distributed`), and the per-round message lengths
  are exactly what the paper's simultaneous-communication framing
  (``S x = S x^1 + ... + S x^s``) charges for.

Every sketch in the repository — including the linear hash tables of
Algorithm 2 — exposes the same two-sided protocol:

* ``state_ints()`` returns a flat integer sequence that fully determines
  the sketch's *dynamic* state (hash seeds are excluded: they are shared
  knowledge derived from the public seed, just as the paper's protocols
  assume shared randomness);
* ``from_state_ints(values)`` is its exact inverse — called on a
  freshly built same-seed/same-shape instance it overwrites the dynamic
  state in place, so ``fresh.from_state_ints(old.state_ints())``
  round-trips bit-for-bit, arbitrary-precision cells included.

This module packs such sequences with ZigZag + varint encoding — small
magnitudes (the common case: empty cells are 0) cost one byte, and
arbitrarily large magnitudes (the ``~2^61``-sized payload cells of the
linear hash tables) are encoded exactly.  :func:`serialize_sketch` /
:func:`deserialize_sketch` bundle the two halves into the byte-level
round trip the distributed runner ships over process boundaries.

The codec runs on numpy blocks — :data:`_PACK_BLOCK` values or
:data:`_UNPACK_BLOCK` bytes at a time, so its temporaries stay under a
megabyte however long the message.  Packing zigzags a block of ``int64``
into ``uint64`` (every ``int64`` fits, so a weighted ledger's float64
weight bits stay on this path), counts each value's bytes (up to ten)
with threshold compares and writes the 7-bit groups byte position by
byte position; unpacking finds the terminator bytes (high bit clear),
shifts every byte by its place in its varint, ORs each varint together
with ``np.bitwise_or.reduceat`` and un-zigzags.  Both are byte-for-byte
the arbitrary-precision Python loops :func:`_pack_exact` /
:func:`_unpack_exact`, which stay as the exact path for any block the
64-bit arithmetic cannot carry — a value outside ``int64``, a varint
whose value does not fit ``uint64``, or input that is not an integer
array — and as the tests' oracle.  Floats are never truncated: a float
block takes the exact path, which raises ``TypeError``.

Wires travel as ``int64`` arrays wherever every value fits: the sketch
stacks build their blocks straight from their counter planes,
:func:`concat_ints` joins blocks without a per-element pass, an
``int64`` array packs with no dtype inference, and :func:`unpack_ints`
returns an ``int64`` array unless some value leaves ``int64`` — then a
list of exact Python ints, as every consumer accepts either.
"""

from __future__ import annotations

import operator
from typing import Iterable

import numpy as np

__all__ = [
    "concat_ints",
    "pack_ints",
    "unpack_ints",
    "serialized_size_bytes",
    "serialize_sketch",
    "deserialize_sketch",
]


#: Values per numpy pack block.  Packing holds ~80 bytes of temporaries
#: per value, so a block adds ~0.3 MB to a checkpoint's peak memory;
#: 2^14-value blocks packed a 4 MB checkpoint at most ~20% faster but
#: raised a small session's checkpoint peak by another ~1 MB.
_PACK_BLOCK = 1 << 12

#: Bytes per numpy unpack window (~40 bytes of temporaries per byte:
#: ~0.6 MB); 2^16-byte windows were no faster on a 4 MB checkpoint and
#: doubled a small session's restore peak.
_UNPACK_BLOCK = 1 << 14

#: Longest varint of the numpy paths: every ``int64`` zigzags into
#: ``uint64``, at most ten 7-bit groups; a ten-byte varint fits ``uint64``
#: when its last group is 0 or 1.
_MAX_FAST_VARINT = 10

_LOW7 = np.uint64(0x7F)


def _wide_zigzag(value: int) -> int:
    # Arbitrary-precision zigzag: non-negative -> even, negative -> odd.
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _zigzag_decode(encoded: int) -> int:
    if encoded & 1:
        return -((encoded + 1) >> 1)
    return encoded >> 1


def _pack_exact(values: Iterable[int]) -> bytes:
    """Arbitrary-precision varint encoder: the exact path and the oracle
    of the numpy blocks (``operator.index`` refuses floats and turns
    numpy integers into Python ints)."""
    chunks = bytearray()
    for value in values:
        encoded = _wide_zigzag(operator.index(value))
        while True:
            byte = encoded & 0x7F
            encoded >>= 7
            if encoded:
                chunks.append(byte | 0x80)
            else:
                chunks.append(byte)
                break
    return bytes(chunks)


def _unpack_exact(data: bytes) -> list[int]:
    """Arbitrary-precision varint decoder: the exact path and the oracle
    of the numpy windows."""
    values = []
    current = 0
    shift = 0
    for byte in data:
        current |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            values.append(_zigzag_decode(current))
            current = 0
            shift = 0
    if shift != 0:
        raise ValueError("truncated varint stream")
    return values


def _int64_block(block) -> np.ndarray | None:
    """``block`` as a 1-d ``int64`` array when every entry is an integer
    that fits ``int64``, else ``None`` (exact path).  Floats, bools,
    objects and wider ints infer a non-integer, object or unsigned 64-bit
    dtype, so nothing is ever truncated by a cast."""
    try:
        array = np.asarray(block)
    except (OverflowError, ValueError):
        return None
    if array.ndim != 1 or array.dtype.kind not in "iu" or array.dtype.itemsize > 8:
        return None
    if array.dtype == np.uint64 and int(array.max()) >= 1 << 63:
        return None
    return array.astype(np.int64, copy=False)


def _pack_block(values: np.ndarray) -> bytes:
    """Varints of ``int64`` values (zigzag wraps exactly in 64 bits)."""
    encoded = ((values << 1) ^ (values >> 63)).view(np.uint64)
    lengths = np.ones(values.size, dtype=np.int64)
    for group in range(1, _MAX_FAST_VARINT):
        lengths += encoded >= np.uint64(1 << (7 * group))
    offsets = np.cumsum(lengths) - lengths
    out = np.empty(int(offsets[-1] + lengths[-1]), dtype=np.uint8)
    for group in range(int(lengths.max())):
        live = np.flatnonzero(lengths > group)
        bits = (encoded[live] >> np.uint64(7 * group)) & _LOW7
        more = (lengths[live] > group + 1).astype(np.uint64) << np.uint64(7)
        out[offsets[live] + group] = bits | more
    return out.tobytes()


def pack_ints(values: Iterable[int]) -> bytes:
    """Encode a sequence of (possibly huge, possibly negative) ints.

    An ``int64`` array (of any shape; packed in C order) goes straight to
    the numpy blocks; a list or an object array infers each block's
    dtype and takes the exact path where a value leaves ``int64``."""
    if isinstance(values, np.ndarray):
        values = values.reshape(-1)
    elif not isinstance(values, (list, tuple)):
        values = list(values)
    int64 = isinstance(values, np.ndarray) and values.dtype == np.int64
    parts = []
    for start in range(0, len(values), _PACK_BLOCK):
        block = values[start : start + _PACK_BLOCK]
        array = block if int64 else _int64_block(block)
        parts.append(_pack_exact(block) if array is None else _pack_block(array))
    return b"".join(parts)


def concat_ints(blocks) -> np.ndarray | list[int]:
    """One wire of the given blocks (lists, tuples or arrays of ints), in
    order: an ``int64`` array when every value fits ``int64``, else a
    list of exact Python ints.  ``int64`` array blocks are joined without
    a per-element pass."""
    arrays = []
    for block in blocks:
        if isinstance(block, np.ndarray) and block.dtype == np.int64:
            array = block.reshape(-1)
        elif len(block) == 0:
            continue
        else:
            array = _int64_block(block)
        if array is None:
            return [
                operator.index(value)
                for block in blocks
                for value in (block.tolist() if isinstance(block, np.ndarray) else block)
            ]
        arrays.append(array)
    return np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.int64)


def _unpack_window(window: np.ndarray, ends: np.ndarray) -> np.ndarray | list[int]:
    """Values of ``window``, whole varints whose last bytes sit at
    ``ends`` (ascending, the last one at the window's end): an ``int64``
    array, or the exact loop's list where 64 bits cannot carry them."""
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    longest = ends - starts == _MAX_FAST_VARINT - 1
    if int((ends - starts).max()) >= _MAX_FAST_VARINT or (
        longest.any() and int(window[ends[longest]].max()) > 1
    ):
        return _unpack_exact(window.tobytes())
    owner = np.zeros(window.size, dtype=np.int64)
    owner[starts[1:]] = 1
    np.cumsum(owner, out=owner)
    shifts = (np.arange(window.size, dtype=np.int64) - starts[owner]) * 7
    groups = (window & 0x7F).astype(np.uint64) << shifts.astype(np.uint64)
    encoded = np.bitwise_or.reduceat(groups, starts)
    return (encoded >> np.uint64(1)).view(np.int64) ^ -(encoded & np.uint64(1)).view(np.int64)


def unpack_ints(data: bytes) -> np.ndarray | list[int]:
    """Inverse of :func:`pack_ints`: an ``int64`` array when every value
    fits ``int64``, else a list of exact Python ints."""
    stream = np.frombuffer(data, dtype=np.uint8)
    parts: list = []
    start = 0
    while start < stream.size:
        window = stream[start : start + _UNPACK_BLOCK]
        ends = np.flatnonzero(window < 0x80)
        if ends.size == 0:
            # No terminator in a whole window: a pathological varint (or
            # a truncated tail) — the exact loop settles the rest.
            parts.append(_unpack_exact(stream[start:].tobytes()))
            break
        cut = int(ends[-1]) + 1
        parts.append(_unpack_window(window[:cut], ends))
        start += cut
    return concat_ints(parts)


def serialized_size_bytes(sketch) -> int:
    """Bytes needed to ship ``sketch``'s dynamic state.

    ``sketch`` must expose ``state_ints()``.
    """
    return len(serialize_sketch(sketch))


def serialize_sketch(sketch) -> bytes:
    """The sketch's dynamic state as a wire message.

    ``sketch`` must expose ``state_ints()``.  This is what a server in
    the distributed setting sends the coordinator — the message length
    is the communication the model charges for.
    """
    return pack_ints(sketch.state_ints())


def deserialize_sketch(sketch, data: bytes):
    """Load a :func:`serialize_sketch` message into ``sketch``.

    ``sketch`` must be a freshly built instance with the same seed and
    shape as the serialized one and must expose ``from_state_ints()``.
    Returns ``sketch`` (with its dynamic state overwritten) so the call
    composes: ``deserialize_sketch(factory(), blob).decode()``.
    """
    sketch.from_state_ints(unpack_ints(data))
    return sketch
