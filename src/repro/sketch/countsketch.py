"""CountSketch: the paper's noted alternative to exact sparse recovery.

After Theorem 8 the paper remarks: "we could also use other sketches,
such as CountSketch instead of Theorem 8, improving upon the logarithmic
factors in the space, though the reconstruction time will be larger."
This module implements that alternative with the tradeoff it advertises:

* space: ``depth x width`` plain counters — no 3-counter cells, no
  fingerprints, so roughly a third of the peeling sketch's words at
  equal budget;
* reconstruction: point queries are exact for ``B``-sparse vectors whp
  (median over rows), but *decoding* requires enumerating candidates —
  ``O(domain)`` when nothing is known, versus the peeling decoder's
  output-sensitive time — and is not self-verifying.

It is interface-compatible with
:class:`~repro.sketch.sparse_recovery.SparseRecoverySketch` for the
linearity operations, and E6-style tests compare both.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable

from repro.sketch.hashing import KWiseHash
from repro.util.rng import derive_seed

__all__ = ["CountSketch"]

#: Independence for bucket/sign hashes; pairwise suffices for the
#: variance bound, 4-wise tightens concentration.
_HASH_INDEPENDENCE = 4


class CountSketch:
    """Charikar–Chen–Farach-Colton frequency sketch.

    Parameters
    ----------
    domain_size:
        Coordinates live in ``[0, domain_size)``.
    budget:
        Target sparsity ``B``; point queries on ``<= budget``-sparse
        vectors are exact whp.
    seed:
        Randomness name; equal-seed sketches are summable.
    depth:
        Number of independent rows (median width).
    width_factor:
        Buckets per row are ``max(4, ceil(width_factor * budget))``.
    """

    __slots__ = ("domain_size", "budget", "depth", "width", "_seed_key", "_bucket_hashes", "_sign_hashes", "_cells")

    def __init__(
        self,
        domain_size: int,
        budget: int,
        seed: int | str,
        depth: int = 5,
        width_factor: float = 4.0,
    ):
        if domain_size <= 0:
            raise ValueError(f"domain_size must be positive, got {domain_size}")
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if depth < 1 or depth % 2 == 0:
            raise ValueError(f"depth must be odd and >= 1, got {depth}")
        self.domain_size = domain_size
        self.budget = budget
        self.depth = depth
        self.width = max(4, math.ceil(width_factor * budget))
        self._seed_key = derive_seed(seed, "countsketch", domain_size, budget, depth)
        self._bucket_hashes = [
            KWiseHash.shared(_HASH_INDEPENDENCE, derive_seed(self._seed_key, "bucket", r))
            for r in range(depth)
        ]
        self._sign_hashes = [
            KWiseHash.shared(_HASH_INDEPENDENCE, derive_seed(self._seed_key, "sign", r))
            for r in range(depth)
        ]
        self._cells = [[0] * self.width for _ in range(depth)]

    def _sign(self, row: int, index: int) -> int:
        return 1 if self._sign_hashes[row](index) % 2 == 0 else -1

    def update(self, index: int, delta: int) -> None:
        """Apply ``x[index] += delta``."""
        if not 0 <= index < self.domain_size:
            raise IndexError(f"index {index} out of domain [0, {self.domain_size})")
        if delta == 0:
            return
        for row in range(self.depth):
            bucket = self._bucket_hashes[row].bucket(index, self.width)
            self._cells[row][bucket] += self._sign(row, index) * delta

    def estimate(self, index: int) -> int:
        """Point query: the median-of-rows estimate of ``x[index]``."""
        if not 0 <= index < self.domain_size:
            raise IndexError(f"index {index} out of domain [0, {self.domain_size})")
        estimates = []
        for row in range(self.depth):
            bucket = self._bucket_hashes[row].bucket(index, self.width)
            estimates.append(self._sign(row, index) * self._cells[row][bucket])
        return int(statistics.median(estimates))

    def decode(self, candidates: Iterable[int] | None = None) -> dict[int, int]:
        """Recover nonzero coordinates among ``candidates``.

        With ``candidates=None`` the whole domain is scanned — the
        "larger reconstruction time" the paper's remark warns about.
        Unlike the peeling decoder this is *not* self-verifying: an
        overfull sketch yields noisy estimates rather than ``None``.
        """
        if candidates is None:
            candidates = range(self.domain_size)
        recovered: dict[int, int] = {}
        for index in candidates:
            value = self.estimate(index)
            if value != 0:
                recovered[index] = value
        return recovered

    def combine(self, other: "CountSketch", sign: int = 1) -> None:
        """In-place ``self += sign * other``; seeds/shapes must match."""
        if self._seed_key != other._seed_key:
            raise ValueError("cannot combine sketches with different seeds")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        for row in range(self.depth):
            mine = self._cells[row]
            theirs = other._cells[row]
            for bucket in range(self.width):
                mine[bucket] += sign * theirs[bucket]

    def copy(self) -> "CountSketch":
        """Independent copy with the same state and seed."""
        clone = object.__new__(CountSketch)
        clone.domain_size = self.domain_size
        clone.budget = self.budget
        clone.depth = self.depth
        clone.width = self.width
        clone._seed_key = self._seed_key
        clone._bucket_hashes = self._bucket_hashes
        clone._sign_hashes = self._sign_hashes
        clone._cells = [list(row) for row in self._cells]
        return clone

    def clone(self) -> "CountSketch":
        """Uniform deep-copy entry point (see the sketch-wide ``clone()``
        contract in :mod:`repro.sketch`): alias of :meth:`copy`."""
        return self.copy()

    def state_ints(self) -> list[int]:
        """Dynamic state as a flat int sequence (for serialization)."""
        flat: list[int] = []
        for row in self._cells:
            flat.extend(row)
        return flat

    def state_len(self) -> int:
        """Length of :meth:`state_ints`, without materializing it."""
        return self.depth * self.width

    def from_state_ints(self, values: list[int]) -> "CountSketch":
        """Overwrite the dynamic state from a :meth:`state_ints` sequence.

        Exact inverse of :meth:`state_ints` on a same-seed/same-shape
        sketch; returns ``self``.
        """
        if len(values) != self.depth * self.width:
            raise ValueError(
                f"expected {self.depth * self.width} state ints, got {len(values)}"
            )
        self._cells = [
            [int(v) for v in values[row * self.width : (row + 1) * self.width]]
            for row in range(self.depth)
        ]
        return self

    def space_words(self) -> int:
        """Persistent state, in machine words."""
        hash_words = sum(h.space_words() for h in self._bucket_hashes)
        hash_words += sum(h.space_words() for h in self._sign_hashes)
        return self.depth * self.width + hash_words
