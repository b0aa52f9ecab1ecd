"""Exact ``B``-sparse recovery: the paper's ``SKETCH_B`` / ``DECODE`` pair.

Theorem 8 (quoting [CM06]) promises a randomized linear map ``T`` with
``O(B log^3 n)`` rows such that any ``B``-sparse integer vector ``x`` can
be recovered exactly from ``Tx`` with probability ``1 - n^{-c}``.  We
implement the standard practical construction with the same interface and
guarantees:

* ``d`` hash rows, each with ``m = ceil(c * B)`` buckets;
* every bucket is a Ganguly 1-sparse detector (see
  :mod:`repro.sketch.onesparse`);
* decoding peels: find a bucket that currently summarizes a 1-sparse
  sub-vector, extract its coordinate, subtract it from every row, repeat.

Decoding *self-verifies*: it succeeds only if all buckets are driven to
zero, so a sketch "knows" whether it decoded (the property the paper gets
by attaching a distinct-elements guard; our residual check is strictly
stronger, and :mod:`repro.sketch.distinct` is still provided and used
where the paper calls for degree estimates).

The sketch is linear: two sketches built from the same seed can be added
or subtracted, and a sketch of ``x`` plus a sketch of ``y`` decodes to
``x + y``.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro import obs
from repro.sketch.hashing import MERSENNE_61, KWiseHash
from repro.util.rng import derive_seed

__all__ = ["SparseRecoverySketch"]

#: Independence of the bucket-choice hash functions.  Theorem 8 only needs
#: O(1)-wise independence; 6-wise keeps peeling well-behaved in practice.
_BUCKET_HASH_INDEPENDENCE = 6

# -- batch coercions ---------------------------------------------------
# Shared by the columnar stacks (``repro.sketch.columnar``) and the
# pass-2 table store (``repro.sketch.table_store``).


def _integer_array(values) -> np.ndarray:
    """``values`` as an ndarray, or ``TypeError`` if an entry is not an integer.

    Casting a float batch to ``int64`` would silently truncate it, while
    the scalar :meth:`SparseRecoverySketch.update` rejects a float index.
    Integer-dtype arrays pass on their dtype alone (constant cost however
    long the batch); anything else is re-read as exact Python objects and
    checked entry by entry (numpy infers ``float64`` for a list such as
    ``[2**63, -1]``, so the inferred dtype alone cannot reject it).
    """
    array = np.asarray(values)
    if array.dtype.kind in "iub" or array.size == 0:
        return array
    if not isinstance(values, np.ndarray):
        array = np.array(values, dtype=object)
    for value in array.flat:
        if not isinstance(value, (int, np.integer)):
            raise TypeError(f"batch entries must be integers, got {value!r}")
    return array


def as_index_array(indices) -> np.ndarray:
    """Coerce an integer batch to contiguous ``int64``: coordinates, row
    ids, keys or deltas."""
    array = _integer_array(indices)
    if array.ndim != 1:
        raise ValueError(f"index batch must be 1-D, got shape {array.shape}")
    return np.ascontiguousarray(array, dtype=np.int64)


def max_abs_int64(values: np.ndarray) -> int:
    """Exact ``max(|values|)`` of a nonempty ``int64`` array.

    Computed from the extrema in Python integers: ``np.abs`` wraps on
    ``-2^63`` (its magnitude is not representable in ``int64``), which
    would let that delta slip past an ``int64`` magnitude guard.
    """
    return max(abs(int(values.min())), abs(int(values.max())))


class SparseRecoverySketch:
    """Linear sketch with exact decode of ``<= budget``-sparse vectors.

    Parameters
    ----------
    domain_size:
        Coordinates live in ``[0, domain_size)``.
    budget:
        Target sparsity ``B``; decoding is guaranteed (whp) whenever the
        summarized vector has at most ``budget`` nonzero coordinates.
    seed:
        Randomness name.  Sketches are summable iff seeds (and shapes)
        match.
    rows:
        Number of independent hash rows ``d`` (peeling redundancy).
    bucket_factor:
        Buckets per row are ``max(4, ceil(bucket_factor * budget))``.
    """

    __slots__ = (
        "domain_size",
        "budget",
        "rows",
        "buckets",
        "_seed_key",
        "_z",
        "_row_hashes",
        "_totals",
        "_index_sums",
        "_fingerprints",
    )

    def __init__(
        self,
        domain_size: int,
        budget: int,
        seed: int | str,
        rows: int = 4,
        bucket_factor: float = 2.0,
    ):
        if domain_size <= 0:
            raise ValueError(f"domain_size must be positive, got {domain_size}")
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if rows < 2:
            raise ValueError(f"rows must be >= 2 for peeling, got {rows}")
        self.domain_size = domain_size
        self.budget = budget
        self.rows = rows
        self.buckets = max(4, math.ceil(bucket_factor * budget))
        self._seed_key = derive_seed(seed, "sparse-recovery", domain_size, budget, rows)
        self._z = 1 + self._seed_key % (MERSENNE_61 - 1)
        self._row_hashes = [
            KWiseHash.shared(_BUCKET_HASH_INDEPENDENCE, derive_seed(self._seed_key, "row", r))
            for r in range(rows)
        ]
        size = rows * self.buckets
        self._totals = [0] * size
        self._index_sums = [0] * size
        self._fingerprints = [0] * size

    # ------------------------------------------------------------------
    # Streaming updates
    # ------------------------------------------------------------------

    def update(self, index: int, delta: int) -> None:
        """Apply ``x[index] += delta`` — the scalar oracle the columnar
        stacks are held to bit for bit."""
        if not 0 <= index < self.domain_size:
            raise IndexError(f"index {index} out of domain [0, {self.domain_size})")
        if delta == 0:
            return
        power = pow(self._z, index, MERSENNE_61)
        fingerprint_delta = delta * power
        index_delta = delta * index
        for row, row_hash in enumerate(self._row_hashes):
            cell = row * self.buckets + row_hash.bucket(index, self.buckets)
            self._totals[cell] += delta
            self._index_sums[cell] += index_delta
            self._fingerprints[cell] = (self._fingerprints[cell] + fingerprint_delta) % MERSENNE_61

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def decode(self) -> dict[int, int] | None:
        """Recover the summarized vector as ``{index: value}``.

        Returns ``None`` when the vector is not decodable (more than
        ``budget`` nonzeros, up to peeling slack) — never a wrong answer,
        up to the ``~1/2^61`` fingerprint failure probability.  An empty
        dict means the vector is (whp) zero.
        """
        obs.TRACER.count("sketch.decode.attempt")
        if (
            not any(self._totals)
            and not any(self._index_sums)
            and not any(self._fingerprints)
        ):
            return {}  # zero state peels to nothing with a clean residual
        totals = list(self._totals)
        index_sums = list(self._index_sums)
        fingerprints = list(self._fingerprints)
        recovered: dict[int, int] = {}
        power_cache: dict[int, int] = {}

        def cell_one_sparse(cell: int) -> tuple[int, int] | None:
            total = totals[cell]
            if total == 0:
                return None
            if index_sums[cell] % total != 0:
                return None
            index = index_sums[cell] // total
            if not 0 <= index < self.domain_size:
                return None
            power = power_cache.get(index)
            if power is None:
                power = pow(self._z, index, MERSENNE_61)
                power_cache[index] = power
            if (total % MERSENNE_61) * power % MERSENNE_61 != fingerprints[cell]:
                return None
            return (index, total)

        # Queue-based peeling: after an extraction only the d cells of the
        # extracted index can change state, so re-examine exactly those.
        # Only cells with a nonzero running total can ever extract, so
        # the initial scan seeds just those — the big win for barely
        # loaded tables (the spanner's lazy pass-2 tables hold a handful
        # of keys in thousands of cells).  Extraction order changes
        # nothing: every verified extraction removes its coordinate
        # completely, so peeling is confluent.
        size = self.rows * self.buckets
        queued = [False] * size
        seeds = [cell for cell, total in enumerate(totals) if total]
        for cell in seeds:
            queued[cell] = True
        queue = deque(seeds)
        peel_iterations = 0
        while queue:
            peel_iterations += 1
            cell = queue.popleft()
            queued[cell] = False
            extracted = cell_one_sparse(cell)
            if extracted is None:
                continue
            index, value = extracted
            recovered[index] = recovered.get(index, 0) + value
            power = power_cache[index]
            fingerprint_delta = value * power
            index_delta = value * index
            for row, row_hash in enumerate(self._row_hashes):
                target = row * self.buckets + row_hash.bucket(index, self.buckets)
                totals[target] -= value
                index_sums[target] -= index_delta
                fingerprints[target] = (fingerprints[target] - fingerprint_delta) % MERSENNE_61
                if not queued[target]:
                    queued[target] = True
                    queue.append(target)

        # C-speed residual check (any() over the plain int lists).
        obs.TRACER.count("sketch.decode.peel_iterations", peel_iterations)
        if any(totals) or any(index_sums) or any(fingerprints):
            obs.TRACER.count("sketch.decode.fail")
            return None
        return {index: value for index, value in recovered.items() if value != 0}

    def decode_support(self) -> list[int] | None:
        """Sorted nonzero coordinates, or ``None`` if undecodable."""
        decoded = self.decode()
        if decoded is None:
            return None
        return sorted(decoded)

    def is_zero(self) -> bool:
        """Whether the summarized vector is (whp) identically zero."""
        return (
            all(value == 0 for value in self._totals)
            and all(value == 0 for value in self._index_sums)
            and all(value == 0 for value in self._fingerprints)
        )

    # ------------------------------------------------------------------
    # Linearity
    # ------------------------------------------------------------------

    def combine(self, other: "SparseRecoverySketch", sign: int = 1) -> None:
        """In-place ``self += sign * other``; seeds/shapes must match."""
        if self._seed_key != other._seed_key:
            raise ValueError("cannot combine sketches with different seeds")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        for cell in range(self.rows * self.buckets):
            self._totals[cell] += sign * other._totals[cell]
            self._index_sums[cell] += sign * other._index_sums[cell]
            self._fingerprints[cell] = (
                self._fingerprints[cell] + sign * other._fingerprints[cell]
            ) % MERSENNE_61

    def copy(self) -> "SparseRecoverySketch":
        """Return an independent copy with the same state and seed."""
        clone = object.__new__(SparseRecoverySketch)
        clone.domain_size = self.domain_size
        clone.budget = self.budget
        clone.rows = self.rows
        clone.buckets = self.buckets
        clone._seed_key = self._seed_key
        clone._z = self._z
        clone._row_hashes = self._row_hashes  # hashes are immutable, share
        clone._totals = list(self._totals)
        clone._index_sums = list(self._index_sums)
        clone._fingerprints = list(self._fingerprints)
        return clone

    def clone(self) -> "SparseRecoverySketch":
        """Uniform deep-copy entry point (see the sketch-wide ``clone()``
        contract in :mod:`repro.sketch`): alias of :meth:`copy`."""
        return self.copy()

    def state_ints(self) -> list[int]:
        """Dynamic state as a flat int sequence (for serialization).

        Hash functions and the fingerprint base are seed-derived shared
        knowledge and are not part of the shipped state.
        """
        return list(self._totals) + list(self._index_sums) + list(self._fingerprints)

    def state_len(self) -> int:
        """Length of :meth:`state_ints`, without materializing it."""
        return 3 * self.rows * self.buckets

    def from_state_ints(self, values: list[int]) -> "SparseRecoverySketch":
        """Overwrite the dynamic state from a :meth:`state_ints` sequence.

        Exact inverse of :meth:`state_ints` on a same-seed/same-shape
        sketch (arbitrary-precision cells included); returns ``self``.
        """
        cells = self.rows * self.buckets
        if len(values) != 3 * cells:
            raise ValueError(f"expected {3 * cells} state ints, got {len(values)}")
        self._totals = [int(v) for v in values[:cells]]
        self._index_sums = [int(v) for v in values[cells : 2 * cells]]
        self._fingerprints = [int(v) % MERSENNE_61 for v in values[2 * cells :]]
        return self

    def space_words(self) -> int:
        """Persistent state, in machine words."""
        cells = self.rows * self.buckets
        hash_words = sum(h.space_words() for h in self._row_hashes)
        return 3 * cells + hash_words + 1  # +1 for the fingerprint base

    def __repr__(self) -> str:
        return (
            f"SparseRecoverySketch(domain_size={self.domain_size}, budget={self.budget}, "
            f"rows={self.rows}, buckets={self.buckets})"
        )
