"""The ``limb`` kernel backend: fused in-place two-limb fast path.

Same exact 32/29-bit limb-split arithmetic as the ``reference`` backend,
restructured for throughput:

* every multiply runs through one in-place ufunc chain
  (:func:`_mul_into`) instead of ~10 fresh temporaries per call;
* the Horner loops split the key batch into 32-bit limbs **once** and
  reuse them for every coefficient round;
* intermediates live in a process-wide scratch-buffer pool keyed by
  ``(tag)`` and grown to the largest batch seen, so the steady-state hot
  path allocates only its output arrays.

The scratch pool makes these kernels **non-reentrant**: a kernel call
must finish before the next one starts (true for the single-threaded
numpy engines; the multiprocessing shard backend gets a pool per
process).  Scratch never escapes — every public function returns freshly
allocated arrays.

Bit-identity with ``reference`` is a hard contract: both backends
compute the same canonical residues in ``[0, p)`` on every input
(``tests/sketch/test_kernel_backends.py`` holds them to it).  Shapes the
in-place chain does not specialize (0-d, broadcasting, >1-D keys) defer
to the reference implementation — same values either way.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.hashing import MERSENNE_61
from repro.sketch.kernels import reference as _ref
from repro.util import sanitize as _sanitize

__all__ = [
    "build_pow_table",
    "mulmod61",
    "polyhash61",
    "polyhash61_multi",
    "polyhash61_rows",
    "scatter_sum_mod61",
    "stack_positions_terms",
]

_M61 = np.uint64(MERSENNE_61)
_MASK32 = _ref.MASK32
_MASK29 = np.uint64((1 << 29) - 1)
_EIGHT = np.uint64(8)
_U29 = np.uint64(29)
_U32 = np.uint64(32)
_U61 = np.uint64(61)
_BYTE = np.uint64(0xFF)
_BYTE_I64 = np.int64(0xFF)

#: Scratch pool: tag -> flat uint64 buffer, grown to the largest request.
_SCRATCH: dict[str, np.ndarray] = {}
#: Same, for int64 gather-index scratch.
_SCRATCH_I64: dict[str, np.ndarray] = {}


def _buf(tag: str, size: int) -> np.ndarray:
    """A reusable flat ``uint64`` scratch view of ``size`` elements."""
    buf = _SCRATCH.get(tag)
    if buf is None or buf.size < size:
        buf = np.empty(max(size, 256), dtype=np.uint64)
        _SCRATCH[tag] = buf
    return buf[:size]


def _buf2(tag: str, d: int, n: int) -> np.ndarray:
    """A reusable ``(d, n)`` ``uint64`` scratch view."""
    return _buf(tag, d * n).reshape(d, n)


def _ibuf(tag: str, size: int) -> np.ndarray:
    """A reusable flat ``int64`` scratch view (gather indices)."""
    buf = _SCRATCH_I64.get(tag)
    if buf is None or buf.size < size:
        buf = np.empty(max(size, 256), dtype=np.int64)
        _SCRATCH_I64[tag] = buf
    return buf[:size]


def _finish_fold(out: np.ndarray, s1: np.ndarray) -> None:
    """Reduce ``out < 2^63`` into ``[0, p)`` in place (two Mersenne folds)."""
    np.right_shift(out, _U61, out=s1)
    np.bitwise_and(out, _M61, out=out)
    np.add(out, s1, out=out)
    np.right_shift(out, _U61, out=s1)
    np.bitwise_and(out, _M61, out=out)
    np.add(out, s1, out=out)
    np.subtract(out, _M61, out=out, where=out >= _M61)


def _mul_into(a, b_hi, b_lo, out, s1, s2, s3) -> None:
    """``out = (a * b) mod p`` with ``b`` pre-split into 32-bit limbs.

    ``out`` may alias ``a`` (the Horner accumulator does); the scratch
    buffers must alias nothing else.  Same limb algebra as
    ``reference.mulmod61`` (``2^61 ≡ 1``, ``2^64 ≡ 8 mod p``), run as an
    in-place ufunc chain.
    """
    np.right_shift(a, _U32, out=s1)  # a_hi
    np.multiply(s1, b_lo, out=s2)  # a_hi * b_lo
    np.multiply(s1, b_hi, out=s1)  # hi = a_hi * b_hi
    np.bitwise_and(a, _MASK32, out=out)  # a_lo (a dead past here)
    np.multiply(out, b_hi, out=s3)  # a_lo * b_hi
    np.add(s2, s3, out=s2)  # mid = a_hi*b_lo + a_lo*b_hi
    np.multiply(out, b_lo, out=s3)  # lo = a_lo * b_lo
    np.right_shift(s2, _U29, out=out)  # mid >> 29  (2^61 ≡ 1)
    np.bitwise_and(s2, _MASK29, out=s2)
    np.left_shift(s2, _U32, out=s2)  # (mid & (2^29-1)) << 32
    np.multiply(s1, _EIGHT, out=s1)  # hi * 8  (2^64 ≡ 8)
    np.add(out, s1, out=out)
    np.add(out, s2, out=out)
    np.right_shift(s3, _U61, out=s1)  # lo >> 61
    np.add(out, s1, out=out)
    np.bitwise_and(s3, _M61, out=s3)  # lo & p
    np.add(out, s3, out=out)  # total < 2^63, no wraparound
    _finish_fold(out, s1)


def _add_canonical(acc: np.ndarray, value, s1: np.ndarray) -> None:
    """``acc = (acc + value) mod p`` in place, both operands canonical."""
    np.add(acc, value, out=acc)  # < 2^62
    np.right_shift(acc, _U61, out=s1)
    np.bitwise_and(acc, _M61, out=acc)
    np.add(acc, s1, out=acc)
    np.subtract(acc, _M61, out=acc, where=acc >= _M61)


def _canonical_keys(xs: np.ndarray, tag: str) -> np.ndarray:
    """Key batch reduced into ``[0, p)``, matching the reference prologue.

    May return a scratch view — callers must split it into limbs before
    invoking anything that reuses the same tag space.
    """
    if xs.dtype != np.uint64:
        return np.remainder(xs, MERSENNE_61).astype(np.uint64)
    out = _buf(tag + ".keys", xs.size)
    np.copyto(out, xs)
    np.subtract(out, _M61, out=out, where=out >= _M61)
    return out


def _split_keys(xs: np.ndarray, tag: str) -> tuple[np.ndarray, np.ndarray]:
    """32-bit limbs of a canonical key batch, in scratch."""
    x_hi = _buf(tag + ".xhi", xs.size)
    x_lo = _buf(tag + ".xlo", xs.size)
    np.right_shift(xs, _U32, out=x_hi)
    np.bitwise_and(xs, _MASK32, out=x_lo)
    return x_hi, x_lo


def mulmod61(a, b) -> np.ndarray:
    """Element-wise ``(a * b) mod p``, scratch-pooled in-place fast path."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.ndim != 1 or a.shape != b.shape:
        return _ref.mulmod61(a, b)
    if _sanitize.ENABLED:
        _sanitize.require_canonical(a, MERSENNE_61, "mulmod61 lhs")
        _sanitize.require_canonical(b, MERSENNE_61, "mulmod61 rhs")
    n = a.size
    b_hi = _buf("mul.bhi", n)
    b_lo = _buf("mul.blo", n)
    np.right_shift(b, _U32, out=b_hi)
    np.bitwise_and(b, _MASK32, out=b_lo)
    out = np.empty(n, dtype=np.uint64)
    _mul_into(a, b_hi, b_lo, out, _buf("mul.s1", n), _buf("mul.s2", n), _buf("mul.s3", n))
    return out


def polyhash61(coefficients, xs: np.ndarray) -> np.ndarray:
    """Vectorized Horner with the key limbs split once per batch."""
    xs = np.asarray(xs)
    if xs.ndim != 1 or xs.size == 0:
        return _ref.polyhash61(coefficients, xs)
    n = xs.size
    keys = _canonical_keys(xs, "ph1")
    x_hi, x_lo = _split_keys(keys, "ph1")
    acc = np.full(n, np.uint64(coefficients[0] % MERSENNE_61))
    s1, s2, s3 = _buf("ph1.s1", n), _buf("ph1.s2", n), _buf("ph1.s3", n)
    for coefficient in coefficients[1:]:
        _mul_into(acc, x_hi, x_lo, acc, s1, s2, s3)
        _add_canonical(acc, np.uint64(coefficient % MERSENNE_61), s1)
    return acc


def polyhash61_multi(coeff_matrix: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``d`` polynomials over one key batch, fused Horner over ``(d, n)``."""
    xs = np.asarray(xs)
    if xs.ndim != 1 or xs.size == 0:
        return _ref.polyhash61_multi(coeff_matrix, xs)
    d, n = coeff_matrix.shape[0], xs.size
    keys = _canonical_keys(xs, "phm")
    x_hi, x_lo = _split_keys(keys, "phm")
    acc = np.empty((d, n), dtype=np.uint64)
    np.copyto(acc, coeff_matrix[:, :1])  # broadcast the leading coefficients
    s1, s2, s3 = _buf2("phm.s1", d, n), _buf2("phm.s2", d, n), _buf2("phm.s3", d, n)
    for t in range(1, coeff_matrix.shape[1]):
        _mul_into(acc, x_hi, x_lo, acc, s1, s2, s3)
        _add_canonical(acc, coeff_matrix[:, t : t + 1], s1)
    return acc


def polyhash61_rows(coeff_matrix: np.ndarray, row_ids: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Per-row-polynomial Horner with scratch-pooled coefficient gathers."""
    xs = np.asarray(xs)
    row_ids = np.asarray(row_ids)
    if xs.ndim != 1 or xs.size == 0 or row_ids.shape != xs.shape:
        return _ref.polyhash61_rows(coeff_matrix, row_ids, xs)
    n = xs.size
    keys = _canonical_keys(xs, "phr")
    x_hi, x_lo = _split_keys(keys, "phr")
    acc = coeff_matrix[row_ids, 0]
    cbuf = _buf("phr.c", n)
    s1, s2, s3 = _buf("phr.s1", n), _buf("phr.s2", n), _buf("phr.s3", n)
    for t in range(1, coeff_matrix.shape[1]):
        _mul_into(acc, x_hi, x_lo, acc, s1, s2, s3)
        np.take(coeff_matrix[:, t], row_ids, out=cbuf)
        _add_canonical(acc, cbuf, s1)
    return acc


def build_pow_table(bases, max_exponent: int) -> np.ndarray:
    """Per-base byte-windowed power tables, built by doubling.

    Column block ``[s, 2s)`` of every ``(base, window)`` row is block
    ``[0, s)`` times ``step^s``, so eight :func:`mulmod61` passes per
    window over ``G * s`` elements fill all ``G`` tables at once; the
    ``step^s`` multipliers are the repeated squares ``base^(2^m)``.
    Bit-identical to the reference's scalar loop.
    """
    bases = np.remainder(np.ravel(np.asarray(bases, dtype=np.uint64)), _M61)
    windows = _ref.pow_table_windows(max_exponent)
    count = bases.size
    # squares[m] = base^(2^m): window i's step^(2^b) is squares[8i + b].
    squares = np.empty((8 * windows, count), dtype=np.uint64)
    squares[0] = bases
    for m in range(1, 8 * windows):
        squares[m] = mulmod61(squares[m - 1], squares[m - 1])
    table = np.empty((count, windows, 256), dtype=np.uint64)
    table[:, :, 0] = 1
    for i in range(windows):  # one window at a time bounds the pooled scratch
        for b in range(8):
            span = 1 << b
            table[:, i, span : 2 * span] = mulmod61(
                table[:, i, :span].reshape(-1), np.repeat(squares[8 * i + b], span)
            ).reshape(count, span)
    return table


def scatter_sum_mod61(cells: int, positions: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Fingerprint scatter-add with pooled limb planes."""
    if _sanitize.ENABLED:
        _sanitize.require_positions(positions, cells)
        _sanitize.require_canonical(terms, MERSENNE_61, "scatter_sum_mod61 terms")
    terms = np.asarray(terms, dtype=np.uint64)
    if terms.ndim != 1:
        return _ref.scatter_sum_mod61(cells, positions, terms)
    n = terms.size
    lo = _buf("sc.lo", cells)
    hi = _buf("sc.hi", cells)
    lo.fill(0)
    hi.fill(0)
    tb = _buf("sc.t", n)
    np.bitwise_and(terms, _MASK32, out=tb)
    np.add.at(lo, positions, tb)
    np.right_shift(terms, _U32, out=tb)
    np.add.at(hi, positions, tb)
    # lo < n*2^32, hi < n*2^29 (safe to 2^31 terms): reduce each limb mod
    # p, then recombine as lo + hi*2^32 mod p.
    s1 = _buf("sc.s1", cells)
    _finish_fold(lo, s1)
    _finish_fold(hi, s1)
    s2, s3 = _buf("sc.s2", cells), _buf("sc.s3", cells)
    _c32 = np.uint64((1 << 32) % MERSENNE_61)
    _mul_into(hi, _c32 >> _U32, _c32 & _MASK32, hi, s1, s2, s3)
    out = np.empty(cells, dtype=np.uint64)
    np.add(lo, hi, out=out)
    np.right_shift(out, _U61, out=s1)
    np.bitwise_and(out, _M61, out=out)
    np.add(out, s1, out=out)
    np.subtract(out, _M61, out=out, where=out >= _M61)
    return out


#: Incidences per pass of :func:`stack_positions_terms`: bounds the
#: pooled scratch (about 30 words per incidence) however large the
#: fused batch.
_BLOCK = 1 << 14


def stack_positions_terms(
    bucket_coeffs: np.ndarray,
    pow_table: np.ndarray,
    indices: np.ndarray,
    residues: np.ndarray,
    buckets: int,
    groups: np.ndarray,
):
    """Seed-grouped scatter precompute (see the reference oracle).

    One pass per block of incidences whatever the group count: the
    windowed power gathers each incidence's byte entries from its
    group's table, and the ``d`` bucket hashes run one ``(d, n)`` Horner
    whose coefficients are gathered per incidence.  Bit-identical to the
    reference composition.
    """
    indices = np.asarray(indices)
    if indices.ndim != 1 or indices.size == 0:
        return _ref.stack_positions_terms(
            bucket_coeffs, pow_table, indices, residues, buckets, groups
        )
    if np.any(indices < 0):
        raise ValueError("exponents must be non-negative")
    residues = np.asarray(residues, dtype=np.uint64)
    if _sanitize.ENABLED:
        _sanitize.require_canonical(residues, MERSENNE_61, "stack_positions_terms residues")
    num_groups, d, k = bucket_coeffs.shape
    n = indices.size
    groups = np.asarray(groups, dtype=np.int64)
    # coeff_rows[t] is coefficient t of every (group, hash row);
    # incidence j of hash row r reads entry groups[j] * d + r.
    coeff_rows = np.ascontiguousarray(
        bucket_coeffs.transpose(2, 0, 1).reshape(k, num_groups * d)
    )
    positions = np.empty((d, n), dtype=np.int64)
    terms = np.empty(n, dtype=np.uint64)
    for start in range(0, n, _BLOCK):
        block = slice(start, min(start + _BLOCK, n))
        _positions_terms_into(
            coeff_rows,
            pow_table,
            indices[block],
            residues[block],
            buckets,
            groups[block],
            positions[:, block],
            terms[block],
        )
    return positions, terms


def _positions_terms_into(
    coeff_rows, pow_table, indices, residues, buckets, groups, positions, terms
) -> None:
    """One block of :func:`stack_positions_terms`, written into the
    caller's ``positions`` / ``terms`` slices."""
    n = indices.size
    k = coeff_rows.shape[0]
    d = positions.shape[0]
    windows = pow_table.shape[1]
    s1, s2, s3 = _buf("spt.s1", n), _buf("spt.s2", n), _buf("spt.s3", n)
    t_hi, t_lo = _buf("spt.thi", n), _buf("spt.tlo", n)

    # Fingerprint powers: one gather + one multiply per byte window.
    flat_table = pow_table.reshape(-1)
    exp = _buf("spt.exp", n)
    np.copyto(exp, indices, casting="unsafe")  # non-negative int64
    window = _ibuf("spt.w", n)
    first = _ibuf("spt.first", n)
    np.multiply(groups, np.int64(windows * 256), out=first)
    np.bitwise_and(exp, _BYTE, out=window)
    np.add(window, first, out=window)
    powers = _buf("spt.p", n)
    np.take(flat_table, window, out=powers)
    tbuf = _buf("spt.t", n)
    for i in range(1, windows):
        np.right_shift(exp, np.uint64(8 * i), out=window)
        np.bitwise_and(window, _BYTE_I64, out=window)
        if window.any():  # base^0 = 1: all-zero windows multiply by one
            np.add(window, np.int64(i * 256), out=window)
            np.add(window, first, out=window)
            np.take(flat_table, window, out=tbuf)
            np.right_shift(tbuf, _U32, out=t_hi)
            np.bitwise_and(tbuf, _MASK32, out=t_lo)
            _mul_into(powers, t_hi, t_lo, powers, s1, s2, s3)
    np.right_shift(powers, _U32, out=t_hi)
    np.bitwise_and(powers, _MASK32, out=t_lo)
    _mul_into(residues, t_hi, t_lo, terms, s1, s2, s3)

    # Bucket hashes: one (d, n) Horner over the key limbs.
    keys = _canonical_keys(indices, "spt")
    x_hi, x_lo = _split_keys(keys, "spt")
    acc = _buf2("spt.acc", d, n)
    h1, h2, h3 = _buf2("spt.h1", d, n), _buf2("spt.h2", d, n), _buf2("spt.h3", d, n)
    gather = _ibuf("spt.gather", d * n).reshape(d, n)
    np.multiply(groups, np.int64(d), out=gather[0])
    for r in range(1, d):
        np.add(gather[0], np.int64(r), out=gather[r])
    np.take(coeff_rows[0], gather, out=acc)
    cbuf = _buf2("spt.c", d, n)
    for t in range(1, k):
        _mul_into(acc, x_hi, x_lo, acc, h1, h2, h3)
        np.take(coeff_rows[t], gather, out=cbuf)
        _add_canonical(acc, cbuf, h1)
    np.remainder(acc, np.uint64(buckets), out=acc)
    positions[...] = acc
