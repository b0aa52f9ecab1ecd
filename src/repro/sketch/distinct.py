"""Linear distinct-elements (``L_0``) estimation.

Theorem 9 (quoting [KNW10]) gives a linear sketch estimating the number
of nonzero coordinates of a dynamic integer vector to within ``(1 ± eps)``
with probability ``1 - delta`` in ``O(eps^-2 log^2 n log 1/delta)`` bits.
The paper uses such sketches in two places:

* as a *decodability guard* — declare a ``SKETCH_B`` undecodable when the
  estimated support exceeds ``2B`` (our sparse recovery self-verifies, so
  the guard is optional there, but we keep the primitive faithful), and
* as the degree estimator ``d_u`` of Algorithm 3 (the additive spanner
  decides "low degree" from a sketched degree).

The construction: ``reps`` independent repetitions; each repetition
assigns every coordinate a geometric level (nested samples at rates
``2^-j``) and maintains one field fingerprint per level over the
surviving coordinates.  A level's fingerprint is zero iff (whp) no
nonzero coordinate survives at that level, so the per-level "occupancy"
frequencies follow ``1 - (1 - 2^-j)^{L0}`` and can be inverted.
"""

from __future__ import annotations

import math
import statistics

from repro.sketch.hashing import MERSENNE_61, NestedSampler
from repro.util.rng import derive_seed

__all__ = ["DistinctElementsSketch"]


class DistinctElementsSketch:
    """Estimate ``L0(x) = |{i : x[i] != 0}|`` of a dynamic vector.

    Parameters
    ----------
    domain_size:
        Coordinates live in ``[0, domain_size)``.
    seed:
        Randomness name; sketches with equal seeds are summable.
    reps:
        Independent repetitions; the estimate uses occupancy frequencies
        across them.  Default 32 gives a comfortably sub-2x estimate,
        which is all the guard/degree use cases require.
    """

    __slots__ = ("domain_size", "reps", "levels", "_seed_key", "_samplers", "_bases", "_fingerprints")

    def __init__(self, domain_size: int, seed: int | str, reps: int = 32):
        if domain_size <= 0:
            raise ValueError(f"domain_size must be positive, got {domain_size}")
        if reps < 4:
            raise ValueError(f"reps must be >= 4, got {reps}")
        self.domain_size = domain_size
        self.reps = reps
        self.levels = max(1, math.ceil(math.log2(domain_size))) + 1
        self._seed_key = derive_seed(seed, "distinct", domain_size, reps)
        self._samplers = [
            NestedSampler(self.levels - 1, derive_seed(self._seed_key, "lvl", rep))
            for rep in range(reps)
        ]
        self._bases = [
            1 + derive_seed(self._seed_key, "base", rep) % (MERSENNE_61 - 1)
            for rep in range(reps)
        ]
        self._fingerprints = [[0] * self.levels for _ in range(reps)]

    def update(self, index: int, delta: int) -> None:
        """Apply ``x[index] += delta``."""
        if not 0 <= index < self.domain_size:
            raise IndexError(f"index {index} out of domain [0, {self.domain_size})")
        if delta == 0:
            return
        for rep in range(self.reps):
            level = self._samplers[rep].level(index)
            contribution = delta * pow(self._bases[rep], index, MERSENNE_61)
            row = self._fingerprints[rep]
            for j in range(level + 1):
                row[j] = (row[j] + contribution) % MERSENNE_61

    def estimate(self) -> float:
        """Return an estimate of the number of nonzero coordinates."""
        occupancy = [
            sum(1 for rep in range(self.reps) if self._fingerprints[rep][j] != 0)
            for j in range(self.levels)
        ]
        if occupancy[0] == 0:
            return 0.0
        estimates = []
        for j in range(self.levels):
            fraction = occupancy[j] / self.reps
            if 0.05 <= fraction <= 0.95:
                rate = 2.0 ** (-j)
                # fraction ~= 1 - (1 - rate)^L0  =>  invert for L0.
                estimates.append(math.log(1.0 - fraction) / math.log(1.0 - rate + 1e-18))
        if estimates:
            return max(1.0, statistics.median(estimates))
        # All levels saturated or empty: fall back to the deepest
        # saturated level, which pins the estimate to within a factor ~2.
        deepest = max(j for j in range(self.levels) if occupancy[j] > self.reps // 2)
        return float(2 ** (deepest + 1))

    def combine(self, other: "DistinctElementsSketch", sign: int = 1) -> None:
        """In-place ``self += sign * other``; seeds must match."""
        if self._seed_key != other._seed_key:
            raise ValueError("cannot combine sketches with different seeds")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        for rep in range(self.reps):
            mine = self._fingerprints[rep]
            theirs = other._fingerprints[rep]
            for j in range(self.levels):
                mine[j] = (mine[j] + sign * theirs[j]) % MERSENNE_61

    def clone(self) -> "DistinctElementsSketch":
        """Independent copy with the same state and seed.

        The samplers and fingerprint bases are immutable shared
        randomness; only the per-repetition fingerprint rows are copied.
        """
        clone = object.__new__(DistinctElementsSketch)
        clone.domain_size = self.domain_size
        clone.reps = self.reps
        clone.levels = self.levels
        clone._seed_key = self._seed_key
        clone._samplers = self._samplers
        clone._bases = self._bases
        clone._fingerprints = [list(row) for row in self._fingerprints]
        return clone

    def state_ints(self) -> list[int]:
        """Dynamic state as a flat int sequence (for serialization)."""
        flat: list[int] = []
        for row in self._fingerprints:
            flat.extend(row)
        return flat

    def state_len(self) -> int:
        """Length of :meth:`state_ints`, without materializing it."""
        return self.reps * self.levels

    def from_state_ints(self, values: list[int]) -> "DistinctElementsSketch":
        """Overwrite the dynamic state from a :meth:`state_ints` sequence.

        Exact inverse of :meth:`state_ints` on a same-seed/same-shape
        sketch; returns ``self``.
        """
        if len(values) != self.reps * self.levels:
            raise ValueError(
                f"expected {self.reps * self.levels} state ints, got {len(values)}"
            )
        self._fingerprints = [
            [int(v) % MERSENNE_61 for v in values[rep * self.levels : (rep + 1) * self.levels]]
            for rep in range(self.reps)
        ]
        return self

    def space_words(self) -> int:
        """Persistent state, in machine words."""
        sampler_words = sum(s.space_words() for s in self._samplers)
        return self.reps * self.levels + self.reps + sampler_words
