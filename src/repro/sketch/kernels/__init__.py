"""Pluggable Mersenne-field kernel backends behind one dispatch seam.

Every mod-``(2^61 - 1)`` array kernel in the repo routes through this
package.  Three backends implement the same exact field arithmetic:

``reference``
    the original audited numpy kernels (:mod:`.reference`) — the oracle;
``limb``
    the fused in-place two-limb fast path (:mod:`.limb`) — the default;
``native``
    optional C kernels built at first use via ctypes (:mod:`.native`),
    silently falling back to ``limb`` when no compiler is present.

Backend selection reads ``REPRO_KERNEL`` **once at import** (like
``REPRO_TRACE`` / ``REPRO_SANITIZE``): unset or ``auto`` picks ``limb``;
``reference`` / ``limb`` / ``native`` select explicitly.  Tests swap
backends at runtime with :func:`select_backend` — the module-level
kernel functions below are stable wrappers that delegate through the
active backend, so call sites that imported them keep following the
swap.

The contract is **bit-identity**: every backend must land the same
canonical residues in ``[0, p)`` on every input, so sketch state stays
summable across backends, engines, and shards.  The property suite in
``tests/sketch/test_kernel_backends.py`` enforces it; sketchlint SL205
keeps every caller outside this package on the dispatch functions.
"""

from __future__ import annotations

import os

import numpy as np

from repro.sketch.hashing import MERSENNE_61
from repro.sketch.kernels import limb as _limb_mod
from repro.sketch.kernels import reference as _reference_mod

__all__ = [
    "KERNEL_NAMES",
    "MASK32",
    "active_backend",
    "as_field_array",
    "available_backends",
    "native_fallback_reason",
    "select_backend",
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

#: Every kernel a backend may provide; missing entries inherit from the
#: layer below (native -> limb -> reference).
KERNEL_NAMES = (
    "addmod61",
    "submod61",
    "mulmod61",
    "polyhash61",
    "polyhash61_rows",
    "polyhash61_multi",
    "powmod61",
    "build_pow_table",
    "scatter_sum_mod61",
    "stack_positions_terms",
)

#: Low 32-bit limb mask (re-exported from the reference kernels).
MASK32 = _reference_mod.MASK32


def as_field_array(values) -> np.ndarray:
    """Canonical field residues of a delta batch: ``uint64`` in ``[0, p)``.

    The one blessed coercion from signed or arbitrary-precision deltas
    to kernel operands (sketchlint ``SL202`` bans hand-rolled copies
    outside this package).  Plain numpy, not dispatched: every backend
    consumes the same residues.  ``int64`` arrays reduce vectorized;
    lists or object arrays of exact Python ints (the linear hash
    tables' ~``2^61``-sized serialized payloads) reduce element-wise in
    Python integers.  Both land on identical canonical residues.
    """
    if isinstance(values, np.ndarray) and values.dtype != object:
        return np.remainder(values, MERSENNE_61).astype(np.uint64)
    return np.array([int(delta) % MERSENNE_61 for delta in values], dtype=np.uint64)


class _Backend:
    """One resolved backend: a full kernel table layered from modules."""

    __slots__ = ("name",) + KERNEL_NAMES

    def __init__(self, name: str, *layers):
        self.name = name
        for kernel in KERNEL_NAMES:
            for layer in reversed(layers):  # later layers override
                impl = getattr(layer, kernel, None)
                if impl is not None:
                    setattr(self, kernel, impl)
                    break
            else:
                raise AttributeError(f"no backend layer provides {kernel!r}")


_FALLBACK_REASON: str | None = None


def _make_backend(name: str) -> _Backend:
    global _FALLBACK_REASON
    if name == "reference":
        return _Backend("reference", _reference_mod)
    if name == "limb":
        return _Backend("limb", _reference_mod, _limb_mod)
    if name == "native":
        from repro.sketch.kernels import native as _native_mod

        table, reason = _native_mod.load()
        if table is None:
            _FALLBACK_REASON = reason
            return _Backend("limb", _reference_mod, _limb_mod)
        _FALLBACK_REASON = None
        return _Backend("native", _reference_mod, _limb_mod, table)
    raise ValueError(
        f"unknown kernel backend {name!r}: expected auto, reference, limb, or native"
    )


_ACTIVE: _Backend


def select_backend(name: str | None) -> str:
    """Activate a kernel backend; returns the name actually in effect.

    ``None``, ``""``, and ``"auto"`` resolve to ``limb``.  ``"native"``
    may come back as ``"limb"`` — the silent no-compiler fallback, with
    the cause available from :func:`native_fallback_reason`.
    """
    global _ACTIVE
    requested = (name or "auto").strip().lower()
    if requested == "auto":
        requested = "limb"
    _ACTIVE = _make_backend(requested)
    return _ACTIVE.name


def active_backend() -> str:
    """Name of the backend currently serving the dispatch functions."""
    return _ACTIVE.name


def available_backends() -> tuple[str, ...]:
    """Selectable backend names (``native`` may fall back to ``limb``)."""
    return ("reference", "limb", "native")


def native_fallback_reason() -> str | None:
    """Why the last ``native`` selection fell back to ``limb`` (or None)."""
    return _FALLBACK_REASON


select_backend(os.environ.get("REPRO_KERNEL", "auto"))


def addmod61(a, b):
    """Element-wise ``(a + b) mod p`` via the active backend."""
    return _ACTIVE.addmod61(a, b)


def submod61(a, b):
    """Element-wise ``(a - b) mod p`` via the active backend."""
    return _ACTIVE.submod61(a, b)


def mulmod61(a, b):
    """Element-wise ``(a * b) mod p`` via the active backend."""
    return _ACTIVE.mulmod61(a, b)


def polyhash61(coefficients, xs):
    """Vectorized Horner hash evaluation via the active backend."""
    return _ACTIVE.polyhash61(coefficients, xs)


def polyhash61_rows(coeff_matrix, row_ids, xs):
    """Per-row-polynomial Horner evaluation via the active backend."""
    return _ACTIVE.polyhash61_rows(coeff_matrix, row_ids, xs)


def polyhash61_multi(coeff_matrix, xs):
    """Multi-polynomial Horner evaluation via the active backend."""
    return _ACTIVE.polyhash61_multi(coeff_matrix, xs)


def powmod61(base, exponents):
    """Vectorized ``pow(base, e, p)`` via the active backend."""
    return _ACTIVE.powmod61(base, exponents)


def build_pow_table(bases, max_exponent):
    """Per-base byte-windowed power tables, shape ``(len(bases), windows, 256)``."""
    return _ACTIVE.build_pow_table(bases, max_exponent)


def scatter_sum_mod61(cells, positions, terms):
    """Per-cell fingerprint scatter-add via the active backend."""
    return _ACTIVE.scatter_sum_mod61(cells, positions, terms)


def stack_positions_terms(bucket_coeffs, pow_table, indices, residues, buckets, groups):
    """Fused seed-grouped scatter precompute via the active backend."""
    return _ACTIVE.stack_positions_terms(
        bucket_coeffs, pow_table, indices, residues, buckets, groups
    )
