"""The ``reference`` kernel backend: exact numpy field arithmetic.

These are the original audited mod-``(2^61 - 1)`` kernels, moved here
verbatim when the backend seam was cut.  They are the **oracle**: every
other backend (``limb``, ``native``) must land bit-identical values on
every input, and the property suite in
``tests/sketch/test_kernel_backends.py`` holds them to it.

Everything here is **exact**: products of 61-bit field elements are
evaluated via 32-bit limb splitting so no intermediate ever exceeds 64
bits, and Mersenne reduction (``2^61 ≡ 1 mod p``) folds the limbs back.
A batched sketch update therefore lands in *bit-identical* state to the
equivalent sequence of scalar updates.

With ``REPRO_SANITIZE=1`` (see :mod:`repro.util.sanitize`) the kernels
additionally assert their canonical-range preconditions at runtime.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.hashing import MERSENNE_61
from repro.util import sanitize as _sanitize

__all__ = [
    "MASK32",
    "addmod61",
    "build_pow_table",
    "mulmod61",
    "polyhash61",
    "polyhash61_multi",
    "polyhash61_rows",
    "powmod61",
    "scatter_sum_mod61",
    "stack_positions_terms",
    "submod61",
]

#: Low 32-bit limb mask used by the exact 61-bit multiplication.
MASK32 = np.uint64((1 << 32) - 1)

_M61 = np.uint64(MERSENNE_61)
_ZERO = np.uint64(0)


def _fold61(values: np.ndarray) -> np.ndarray:
    """Reduce ``uint64`` values below ``2^63`` into ``[0, p)``."""
    values = (values >> np.uint64(61)) + (values & _M61)
    return np.where(values >= _M61, values - _M61, values)


def addmod61(a: np.ndarray, b) -> np.ndarray:
    """Element-wise ``(a + b) mod p`` for operands already in ``[0, p)``."""
    if _sanitize.ENABLED:
        _sanitize.require_canonical(a, MERSENNE_61, "addmod61 lhs")
        _sanitize.require_canonical(b, MERSENNE_61, "addmod61 rhs")
    return _fold61(a + b)


def submod61(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise ``(a - b) mod p`` for operands already in ``[0, p)``."""
    if _sanitize.ENABLED:
        _sanitize.require_canonical(a, MERSENNE_61, "submod61 lhs")
        _sanitize.require_canonical(b, MERSENNE_61, "submod61 rhs")
    return _fold61(a + np.where(b == _ZERO, _ZERO, _M61 - b))


def mulmod61(a, b) -> np.ndarray:
    """Element-wise ``(a * b) mod p`` for operands in ``[0, p)``, exactly.

    Splits both operands into 32-bit limbs so every partial product fits
    ``uint64``, then folds with ``2^61 ≡ 1``, ``2^64 ≡ 8 (mod p)``.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if _sanitize.ENABLED:
        _sanitize.require_canonical(a, MERSENNE_61, "mulmod61 lhs")
        _sanitize.require_canonical(b, MERSENNE_61, "mulmod61 rhs")
    a_hi, a_lo = a >> np.uint64(32), a & MASK32
    b_hi, b_lo = b >> np.uint64(32), b & MASK32
    # a*b = hi*2^64 + mid*2^32 + lo with hi < 2^58, mid < 2^62, lo < 2^64.
    hi = a_hi * b_hi
    mid = a_hi * b_lo + a_lo * b_hi
    lo = a_lo * b_lo
    # mid*2^32 = (mid >> 29)*2^61 + (mid & (2^29-1))*2^32  ≡  fold both.
    mid_hi, mid_lo = mid >> np.uint64(29), mid & np.uint64((1 << 29) - 1)
    total = (
        hi * np.uint64(8)  # 2^64 ≡ 8
        + mid_hi  # 2^61 ≡ 1
        + (mid_lo << np.uint64(32))
        + (lo >> np.uint64(61))
        + (lo & _M61)
    )  # < 2^63, no wraparound
    return _fold61(_fold61(total))


def polyhash61(coefficients, xs: np.ndarray) -> np.ndarray:
    """Vectorized Horner: ``(((c0*x + c1)*x + c2)...) mod p``.

    Bit-identical to :meth:`repro.sketch.hashing.KWiseHash.__call__`
    evaluated element-wise (inputs are reduced mod ``p`` first, which is
    a no-op for in-range sketch coordinates).
    """
    xs = np.asarray(xs)
    if xs.dtype != np.uint64:
        xs = np.remainder(xs, MERSENNE_61).astype(np.uint64)
    else:
        xs = np.where(xs >= _M61, xs - _M61, xs)
    # Horner with acc starting at the leading coefficient (the first
    # round of the naive loop is mulmod(0, x) — pure waste).
    acc = np.full(xs.shape, np.uint64(coefficients[0] % MERSENNE_61))
    for coefficient in coefficients[1:]:
        acc = addmod61(mulmod61(acc, xs), np.uint64(coefficient % MERSENNE_61))
    return acc


def polyhash61_rows(coeff_matrix: np.ndarray, row_ids: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Horner evaluation where each element uses its own coefficient row.

    ``coeff_matrix`` has shape ``(num_rows, k)`` (``uint64``, reduced mod
    ``p``); element ``t`` is hashed with the polynomial of row
    ``row_ids[t]``.  This is the heterogeneous-seed form of
    :func:`polyhash61`: :func:`stack_positions_terms` evaluates every
    incidence's seed-group bucket hash with it in one vectorized pass.
    Bit-identical to evaluating each row's scalar hash element-wise.
    """
    xs = np.asarray(xs)
    if xs.dtype != np.uint64:
        xs = np.remainder(xs, MERSENNE_61).astype(np.uint64)
    else:
        xs = np.where(xs >= _M61, xs - _M61, xs)
    acc = coeff_matrix[row_ids, 0]
    for t in range(1, coeff_matrix.shape[1]):
        acc = addmod61(mulmod61(acc, xs), coeff_matrix[row_ids, t])
    return acc


def polyhash61_multi(coeff_matrix: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Horner evaluation of ``d`` polynomials over one key batch at once.

    ``coeff_matrix`` has shape ``(d, k)`` (``uint64``, reduced mod
    ``p``); the result has shape ``(d, len(xs))`` with row ``r`` equal to
    ``polyhash61(coeff_matrix[r], xs)``.  One broadcasted pass replaces
    ``d`` separate evaluations — the sketch stacks use it to hash a
    chunk's coordinates with every bucket row in one go.  Bit-identical
    to the scalar hash element-wise.
    """
    xs = np.asarray(xs)
    if xs.dtype != np.uint64:
        xs = np.remainder(xs, MERSENNE_61).astype(np.uint64)
    else:
        xs = np.where(xs >= _M61, xs - _M61, xs)
    acc = np.broadcast_to(coeff_matrix[:, :1], (coeff_matrix.shape[0], xs.shape[0])).copy()
    for t in range(1, coeff_matrix.shape[1]):
        acc = addmod61(mulmod61(acc, xs), coeff_matrix[:, t : t + 1])
    return acc


def pow_table_windows(max_exponent: int) -> int:
    """Byte windows a power table needs to cover exponents up to ``max_exponent``."""
    return max(1, (max(max_exponent, 1).bit_length() + 7) // 8)


def build_pow_table(bases, max_exponent: int) -> np.ndarray:
    """Byte-windowed power tables, one per fingerprint base.

    ``table[g][i][j] = bases[g]^(j * 256^i) mod p`` for every byte value
    ``j`` and every byte position ``i`` of ``max_exponent``; the result
    has shape ``(len(bases), windows, 256)``.  Built once per base (a few
    hundred scalar multiplications — this scalar loop is the oracle the
    vectorized backends are held to) and reused for every batch: a
    square-and-multiply :func:`powmod61` costs ``bit_length(max exponent)``
    vectorized rounds per call, which dominates huge-coordinate domains
    (``n^2 ~ 10^14`` exponents), while the windowed gather in
    :func:`stack_positions_terms` costs one multiply per byte.
    """
    bases = [int(base) % MERSENNE_61 for base in np.ravel(np.asarray(bases, dtype=object))]
    windows = pow_table_windows(max_exponent)
    table = np.empty((len(bases), windows, 256), dtype=np.uint64)
    for g, base in enumerate(bases):
        for i in range(windows):
            step = pow(base, 256 ** i, MERSENNE_61)
            value = 1
            row = table[g, i]
            for j in range(256):
                row[j] = value
                value = value * step % MERSENNE_61
    return table


def _pow_windowed_grouped(pow_table: np.ndarray, groups: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """``bases[groups[t]]^exponents[t] mod p`` through per-group byte tables.

    One gather + one :func:`mulmod61` per exponent byte; all-zero byte
    windows are skipped (``base^0 = 1``).
    """
    if np.any(exponents < 0):
        raise ValueError("exponents must be non-negative")
    exp = exponents.astype(np.uint64)
    windows = pow_table.shape[1]
    rows = pow_table.reshape(-1, 256)
    first_row = groups * windows
    result = rows[first_row, exp & np.uint64(0xFF)]
    for i in range(1, windows):
        window = (exp >> np.uint64(8 * i)) & np.uint64(0xFF)
        if window.any():
            result = mulmod61(result, rows[first_row + i, window])
    return result


def powmod61(base: int, exponents: np.ndarray) -> np.ndarray:
    """Vectorized ``pow(base, e, p)`` by square-and-multiply.

    ``base`` is a scalar field element (the fingerprint base ``z``);
    ``exponents`` are non-negative integers (sketch coordinates).  Runs
    ``bit_length(max exponent)`` vectorized rounds.
    """
    exponents = np.asarray(exponents)
    if np.any(exponents < 0):
        raise ValueError("exponents must be non-negative")
    exp = exponents.astype(np.uint64)
    result = np.ones(exp.shape, dtype=np.uint64)
    square = base % MERSENNE_61
    while True:
        top = int(exp.max()) if exp.size else 0
        if top == 0:
            break
        odd = (exp & np.uint64(1)).astype(bool)
        if odd.any():
            result[odd] = mulmod61(result[odd], np.uint64(square))
        exp = exp >> np.uint64(1)
        if int(exp.max()) == 0:
            break
        square = square * square % MERSENNE_61
    return result


def scatter_sum_mod61(cells: int, positions: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Per-cell ``sum of terms mod p``: the fingerprint scatter-add.

    ``positions`` maps each term to a cell in ``[0, cells)``; the return
    value is a ``uint64`` array of length ``cells`` holding each cell's
    exact sum mod ``p``.  Limb-split so ``np.add.at`` cannot overflow
    even if every term lands in one cell (safe to ``2^31`` terms).
    """
    if _sanitize.ENABLED:
        _sanitize.require_positions(positions, cells)
        _sanitize.require_canonical(terms, MERSENNE_61, "scatter_sum_mod61 terms")
    lo = np.zeros(cells, dtype=np.uint64)
    hi = np.zeros(cells, dtype=np.uint64)
    np.add.at(lo, positions, terms & MASK32)
    np.add.at(hi, positions, terms >> np.uint64(32))
    # lo < n*2^32, hi < n*2^29: reduce each limb mod p, then recombine as
    # lo + hi*2^32 mod p — all operands back in field range.
    lo_red = _fold61(_fold61(lo))
    hi_red = _fold61(_fold61(hi))
    return addmod61(lo_red, mulmod61(hi_red, np.uint64((1 << 32) % MERSENNE_61)))


def stack_positions_terms(
    bucket_coeffs: np.ndarray,
    pow_table: np.ndarray,
    indices: np.ndarray,
    residues: np.ndarray,
    buckets: int,
    groups: np.ndarray,
):
    """Seed-grouped scatter precompute: bucket positions + fingerprint terms.

    The hot per-chunk path of :meth:`repro.sketch.columnar.SketchStack.scatter`.
    A stack holds ``G`` seed groups; incidence ``t`` belongs to group
    ``groups[t]``, whose ``d`` bucket-hash polynomials are
    ``bucket_coeffs[groups[t]]`` (shape ``(G, d, k)``) and whose
    fingerprint base is tabulated in ``pow_table[groups[t]]`` (shape
    ``(G, windows, 256)``, from :func:`build_pow_table`).  Hash every
    coordinate with its group's rows (gathered-coefficient
    ``polyhash61_rows``), raise its group's base to it, and weight by the
    field residues.  Returns ``(positions, terms)``: ``int64`` of shape
    ``(d, len(indices))`` and ``uint64`` of shape ``(len(indices),)``.
    A shared-seed stack is the ``G = 1`` case.  Backends may fuse the
    stages; the values must stay bit-identical to this composition.
    """
    indices = np.asarray(indices)
    groups = np.asarray(groups, dtype=np.int64)
    powers = _pow_windowed_grouped(pow_table, groups, indices)
    terms = mulmod61(residues, powers)
    positions = np.empty((bucket_coeffs.shape[1], indices.size), dtype=np.int64)
    for r in range(bucket_coeffs.shape[1]):
        hashed = polyhash61_rows(bucket_coeffs[:, r, :], groups, indices)
        positions[r] = hashed % np.uint64(buckets)
    return positions, terms
