"""Pluggable Mersenne-field kernel backends behind one dispatch seam.

Every mod-``(2^61 - 1)`` array kernel in the repo routes through this
package.  Two backend modules implement the same exact field
arithmetic:

``reference``
    the original audited numpy kernels (:mod:`.reference`) — the oracle;
``limb``
    the fused in-place two-limb fast path (:mod:`.limb`) — the default.

Backend selection reads ``REPRO_KERNEL`` **once at import** (like
``REPRO_TRACE`` / ``REPRO_SANITIZE``): unset or ``auto`` picks ``limb``;
``reference`` / ``limb`` select explicitly.  Tests swap backends at
runtime with :func:`select_backend` — the module-level kernel functions
below are stable wrappers that delegate through the active backend
module, so call sites that imported them keep following the swap.

The contract is **bit-identity**: both backends land the same canonical
residues in ``[0, p)`` on every input, so sketch state stays summable
across backends, engines, and shards.  The property suite in
``tests/sketch/test_kernel_backends.py`` enforces it; sketchlint SL205
keeps every caller outside this package on the dispatch functions.
"""

from __future__ import annotations

import os
from types import ModuleType

import numpy as np

from repro.sketch.hashing import MERSENNE_61
from repro.sketch.kernels import limb as _limb_mod
from repro.sketch.kernels import reference as _reference_mod

__all__ = [
    "KERNEL_NAMES",
    "MASK32",
    "active_backend",
    "as_field_array",
    "select_backend",
    "addmod61",
    "build_pow_table",
    "mulmod61",
    "polyhash61",
    "polyhash61_multi",
    "scatter_sum_mod61",
    "stack_positions_terms",
    "submod61",
]

#: Every kernel a backend module provides (``limb`` re-exports the
#: reference kernels it does not override).
KERNEL_NAMES = (
    "addmod61",
    "submod61",
    "mulmod61",
    "polyhash61",
    "polyhash61_multi",
    "build_pow_table",
    "scatter_sum_mod61",
    "stack_positions_terms",
)

#: Low 32-bit limb mask (re-exported from the reference kernels).
MASK32 = _reference_mod.MASK32

_BACKENDS = {"reference": _reference_mod, "limb": _limb_mod}


def as_field_array(values) -> np.ndarray:
    """Canonical field residues of a delta batch: ``uint64`` in ``[0, p)``.

    The one blessed coercion from signed or arbitrary-precision deltas
    to kernel operands (sketchlint ``SL202`` bans hand-rolled copies
    outside this package).  Plain numpy, not dispatched: every backend
    consumes the same residues.  ``int64`` arrays reduce vectorized;
    lists or object arrays of exact Python ints (the linear hash
    tables' ~``2^61``-sized serialized payloads) reduce with one
    object-array ``np.remainder`` (Python's non-negative ``%`` per
    element).  Both land on identical canonical residues.
    """
    if not isinstance(values, np.ndarray):
        values = np.asarray(values, dtype=object)
    return np.remainder(values, MERSENNE_61).astype(np.uint64)


_ACTIVE: ModuleType


def select_backend(name: str | None) -> str:
    """Activate a kernel backend module; returns its name.

    ``None``, ``""``, and ``"auto"`` resolve to ``limb``; any name other
    than ``auto`` / ``reference`` / ``limb`` raises :class:`ValueError`
    and leaves the active backend in place.
    """
    global _ACTIVE
    requested = (name or "auto").strip().lower()
    if requested == "auto":
        requested = "limb"
    if requested not in _BACKENDS:
        raise ValueError(
            f"unknown kernel backend {requested!r}: expected auto, reference, or limb"
        )
    _ACTIVE = _BACKENDS[requested]
    return requested


def active_backend() -> str:
    """Name of the backend currently serving the dispatch functions."""
    return _ACTIVE.__name__.rpartition(".")[2]


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


def polyhash61_multi(coeff_matrix, xs):
    """Multi-polynomial Horner evaluation via the active backend."""
    return _ACTIVE.polyhash61_multi(coeff_matrix, xs)


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
