"""The optional ``native`` kernel backend: C via ctypes, built at first use.

A single translation unit of ``unsigned __int128`` Mersenne-61 kernels
is written to a temp directory, compiled with whatever C compiler is on
``PATH`` (``cc``/``gcc``/``clang``), and loaded with :mod:`ctypes` — no
build system, no installed package.  When no compiler is present (or the
build fails) :func:`load` returns ``(None, reason)`` and the dispatch
layer silently falls back to the ``limb`` backend; the reason is
queryable via :func:`repro.sketch.kernels.native_fallback_reason`.

The C kernels reduce with the same algebra as the numpy backends
(``2^61 ≡ 1 mod p``) and land the same canonical residues in ``[0, p)``,
so sketch state stays bit-identical across backends — the contract
``tests/sketch/test_kernel_backends.py`` enforces.
"""

from __future__ import annotations

import ctypes
import shutil
import subprocess
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.sketch.hashing import MERSENNE_61
from repro.sketch.kernels import limb as _limb
from repro.util import sanitize as _sanitize

__all__ = ["load"]

_M61 = np.uint64(MERSENNE_61)

_COMPILERS = ("cc", "gcc", "clang")

_SOURCE = r"""
#include <stdint.h>

static const uint64_t P = 2305843009213693951ULL; /* 2^61 - 1 */

static inline uint64_t mulmod(uint64_t a, uint64_t b) {
    unsigned __int128 v = (unsigned __int128)a * b;
    uint64_t r = (uint64_t)(v & P) + (uint64_t)(v >> 61);
    r = (r & P) + (r >> 61);
    if (r >= P) r -= P;
    return r;
}

void repro_mulmod61(const uint64_t *a, const uint64_t *b, uint64_t *out,
                    int64_t n) {
    for (int64_t i = 0; i < n; i++) out[i] = mulmod(a[i], b[i]);
}

void repro_polyhash(const uint64_t *coeffs, int64_t k, const uint64_t *xs,
                    int64_t n, uint64_t *out) {
    for (int64_t i = 0; i < n; i++) {
        uint64_t x = xs[i];
        uint64_t acc = coeffs[0];
        for (int64_t t = 1; t < k; t++) {
            acc = mulmod(acc, x) + coeffs[t];
            acc = (acc & P) + (acc >> 61);
            if (acc >= P) acc -= P;
        }
        out[i] = acc;
    }
}

void repro_polyhash_multi(const uint64_t *coeffs, int64_t d, int64_t k,
                          const uint64_t *xs, int64_t n, uint64_t *out) {
    for (int64_t r = 0; r < d; r++)
        repro_polyhash(coeffs + r * k, k, xs, n, out + r * n);
}
"""

_U64P = ctypes.POINTER(ctypes.c_uint64)

#: Memoized build result: {"table": SimpleNamespace|None, "reason": str|None}.
_CACHE: dict = {}


def _find_compiler() -> str | None:
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def _ptr(array: np.ndarray):
    return array.ctypes.data_as(_U64P)


def _build_library():
    """Compile the kernel source; return ``(CDLL, None)`` or ``(None, reason)``."""
    compiler = _find_compiler()
    if compiler is None:
        return None, "no C compiler (cc/gcc/clang) on PATH"
    workdir = Path(tempfile.mkdtemp(prefix="repro-kernels-"))
    src = workdir / "kernels61.c"
    lib = workdir / "kernels61.so"
    src.write_text(_SOURCE, encoding="utf-8")
    try:
        proc = subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", str(lib), str(src)],
            capture_output=True,
            text=True,
            timeout=120,
        )
    except (OSError, subprocess.SubprocessError) as error:
        return None, f"compiler invocation failed: {error}"
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout or "").strip().splitlines()
        detail = tail[-1] if tail else "no diagnostic output"
        return None, f"kernel build failed ({compiler}): {detail}"
    try:
        handle = ctypes.CDLL(str(lib))
    except OSError as error:
        return None, f"built kernel library failed to load: {error}"
    handle.repro_mulmod61.argtypes = [_U64P, _U64P, _U64P, ctypes.c_int64]
    handle.repro_polyhash.argtypes = [_U64P, ctypes.c_int64, _U64P, ctypes.c_int64, _U64P]
    handle.repro_polyhash_multi.argtypes = [
        _U64P, ctypes.c_int64, ctypes.c_int64, _U64P, ctypes.c_int64, _U64P,
    ]
    return handle, None


def _canonical_keys(xs: np.ndarray) -> np.ndarray:
    """Contiguous canonical key batch, matching the reference prologue."""
    if xs.dtype != np.uint64:
        return np.ascontiguousarray(np.remainder(xs, MERSENNE_61), dtype=np.uint64)
    xs = np.ascontiguousarray(xs)
    return np.where(xs >= _M61, xs - _M61, xs)


def _make_table(lib) -> SimpleNamespace:
    """Kernel-name -> callable table backed by the compiled library."""

    def mulmod61(a, b) -> np.ndarray:
        """Element-wise ``(a * b) mod p`` in C (``unsigned __int128``)."""
        a = np.ascontiguousarray(a, dtype=np.uint64)
        b = np.ascontiguousarray(b, dtype=np.uint64)
        if a.ndim != 1 or a.shape != b.shape:
            return _limb.mulmod61(a, b)
        if _sanitize.ENABLED:
            _sanitize.require_canonical(a, MERSENNE_61, "mulmod61 lhs")
            _sanitize.require_canonical(b, MERSENNE_61, "mulmod61 rhs")
        out = np.empty(a.size, dtype=np.uint64)
        lib.repro_mulmod61(_ptr(a), _ptr(b), _ptr(out), a.size)
        return out

    def polyhash61(coefficients, xs) -> np.ndarray:
        """Scalar-loop Horner in C, one pass per key batch."""
        xs = np.asarray(xs)
        if xs.ndim != 1 or xs.size == 0:
            return _limb.polyhash61(coefficients, xs)
        keys = _canonical_keys(xs)
        coeffs = np.ascontiguousarray(
            [int(c) % MERSENNE_61 for c in coefficients], dtype=np.uint64
        )
        out = np.empty(keys.size, dtype=np.uint64)
        lib.repro_polyhash(_ptr(coeffs), coeffs.size, _ptr(keys), keys.size, _ptr(out))
        return out

    def polyhash61_multi(coeff_matrix, xs) -> np.ndarray:
        """``d`` Horner rows over one key batch in C."""
        xs = np.asarray(xs)
        if xs.ndim != 1 or xs.size == 0:
            return _limb.polyhash61_multi(coeff_matrix, xs)
        keys = _canonical_keys(xs)
        coeffs = np.ascontiguousarray(coeff_matrix, dtype=np.uint64)
        d, k = coeffs.shape
        out = np.empty((d, keys.size), dtype=np.uint64)
        lib.repro_polyhash_multi(_ptr(coeffs), d, k, _ptr(keys), keys.size, _ptr(out))
        return out

    return SimpleNamespace(
        mulmod61=mulmod61,
        polyhash61=polyhash61,
        polyhash61_multi=polyhash61_multi,
    )


def load():
    """Build (once per process) and load the C backend.

    Returns ``(kernel_table, None)`` on success or ``(None, reason)``
    when the backend is unavailable; the result is memoized so repeated
    ``select_backend("native")`` calls never rebuild.
    """
    if "table" not in _CACHE:
        lib, reason = _build_library()
        _CACHE["table"] = _make_table(lib) if lib is not None else None
        _CACHE["reason"] = reason
    return _CACHE["table"], _CACHE["reason"]
