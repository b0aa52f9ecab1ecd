"""Opt-in runtime sanitizer for the field kernels and clone discipline.

``REPRO_SANITIZE=1`` arms assertion-grade checks at the two places the
repo's invariants can silently rot at runtime rather than in review:

* **canonical-range discipline** — every mod-``p`` kernel in
  :mod:`repro.sketch.kernels` requires operands already reduced into
  ``[0, p)``; an out-of-range operand does not crash, it *wraps*, and
  the sketch quietly stops being summable with its scalar twin.  The
  armed kernels assert the precondition instead.
* **clone independence** — a ``clone()`` that aliases live numpy state
  (the bug class PR 5's manual audit caught in a hash-family deepcopy)
  makes a "snapshot" mutate under the continuing stream.
  :func:`check_clone_independent` walks both objects' reachable numpy
  buffers and asserts the writable ones are disjoint.

The flag is read **once at import** into :data:`ENABLED`; tests flip
``sanitize.ENABLED`` directly (monkeypatch) to exercise both arms
without re-importing.  When disarmed, the kernels pay a single
attribute load and falsy branch per call — measured noise.

Checks raise :class:`SanitizeError` (an ``AssertionError`` subclass:
they are assertions about *our* code, not input validation).
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "ENABLED",
    "SHARED_ATTRS",
    "SanitizeError",
    "check_clone_independent",
    "require_canonical",
    "require_positions",
]

#: Armed iff ``REPRO_SANITIZE`` is set to anything but ``""``/``"0"``
#: when this module is first imported.
ENABLED = os.environ.get("REPRO_SANITIZE", "0") not in ("", "0")


class SanitizeError(AssertionError):
    """A sanitizer assertion failed: an invariant does not hold at runtime."""


#: Attribute names whose numpy buffers are *immutable shared tables* by
#: design — hash-family coefficient matrices and power tables interned
#: across clones on purpose (``KWiseHash.__deepcopy__`` returns self).
#: Everything else reachable from a clone must be a distinct buffer.
SHARED_ATTRS = frozenset(
    {"_zs", "_pow_table", "_pow_built", "_bucket_coeffs", "_membership"}
)


def require_canonical(values, modulus: int, label: str = "operand") -> None:
    """Assert every element of ``values`` lies in ``[0, modulus)``.

    ``values`` may be a numpy array or scalar; integer dtypes only (the
    kernels never see floats — a float here is itself a violation).
    """
    array = np.asarray(values)
    if array.dtype.kind == "f":
        raise SanitizeError(
            f"{label}: float array reached a field kernel "
            f"(dtype {array.dtype}); field elements are exact integers"
        )
    if array.size and int(array.max()) >= modulus:
        raise SanitizeError(
            f"{label}: value {int(array.max())} >= modulus {modulus}; "
            f"kernels require canonical operands in [0, p) — reduce with "
            f"as_field_array first"
        )


def require_positions(positions, cells: int) -> None:
    """Assert scatter targets lie in ``[0, cells)`` (np.add.at wraps negatives)."""
    array = np.asarray(positions)
    if array.size == 0:
        return
    low, high = int(array.min()), int(array.max())
    if low < 0 or high >= cells:
        raise SanitizeError(
            f"scatter position out of range: [{low}, {high}] not within "
            f"[0, {cells}); np.add.at would silently wrap or raise mid-scatter"
        )


def _numpy_buffers(obj, shared: frozenset[str]) -> Iterator[int]:
    """Yield ``id()`` of every writable numpy array reachable from ``obj``.

    Walks ``__dict__``/containers breadth-first, skipping attributes in
    ``shared`` (immutable-by-design interned tables) and zero-size
    arrays (numpy may legitimately intern empties).
    """
    seen: set[int] = set()
    queue: list[object] = [obj]
    while queue:
        current = queue.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        if isinstance(current, np.ndarray):
            if current.size:
                yield id(current)
            continue
        if isinstance(current, dict):
            queue.extend(current.values())
            continue
        if isinstance(current, (list, tuple, set, frozenset)):
            queue.extend(current)
            continue
        state = getattr(current, "__dict__", None)
        if state:
            for name, value in state.items():
                if name in shared:
                    continue
                queue.append(value)


def check_clone_independent(
    original, clone, shared: Iterable[str] = SHARED_ATTRS
) -> None:
    """Assert ``clone`` shares no writable numpy buffer with ``original``.

    ``shared`` names attributes exempt by design (interned immutable
    tables).  Raises :class:`SanitizeError` naming the aliased buffer
    count — the snapshot-mutates-under-the-stream bug class.
    """
    shared = frozenset(shared)
    mine = set(_numpy_buffers(original, shared))
    theirs = set(_numpy_buffers(clone, shared))
    aliased = mine & theirs
    if aliased:
        raise SanitizeError(
            f"clone aliases {len(aliased)} writable numpy buffer(s) of the "
            f"original ({type(original).__name__}): snapshot state will "
            f"mutate under the continuing stream"
        )
