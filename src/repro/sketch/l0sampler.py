"""``L_0``-sampling: recover one nonzero coordinate of a dynamic vector.

The AGM spanning-forest sketch (Theorem 10) is a stack of independent
samplers of signed vertex-incidence vectors; the paper also notes
(Section 3.2) that its explicit ``Y_j`` vertex samples "could be
eliminated by using L0-SAMPLER in a similar way as [AGM12a] does".

Construction (Jowhari–Saglam–Tardos shape): geometric subsampling levels
``j = 0..L`` (nested, rate ``2^-j``); at each level a small
:class:`~repro.sketch.sparse_recovery.SparseRecoverySketch` summarizes the
surviving coordinates.  To sample, scan from the sparsest level down and
return a coordinate from the first level that decodes to a nonempty
vector.  Whp some level holds between 1 and ``budget`` survivors, so
sampling succeeds whenever the vector is nonzero.
"""

from __future__ import annotations

import math

from repro.sketch.hashing import KWiseHash, NestedSampler
from repro.sketch.sparse_recovery import SparseRecoverySketch
from repro.util.rng import derive_seed

__all__ = ["L0Sampler"]


class L0Sampler:
    """Sample a nonzero coordinate ``(index, value)`` of a dynamic vector.

    Parameters
    ----------
    domain_size:
        Coordinates live in ``[0, domain_size)``.
    seed:
        Randomness name; samplers with equal seeds are summable, which is
        what lets AGM merge the sketches of collapsed supernodes.
    budget:
        Per-level sparse-recovery budget.  Small values (4) suffice
        because the geometric levels guarantee some level is sparse.
    """

    __slots__ = ("domain_size", "levels", "_seed_key", "_membership", "_level_sketches", "_tiebreak")

    def __init__(self, domain_size: int, seed: int | str, budget: int = 4):
        if domain_size <= 0:
            raise ValueError(f"domain_size must be positive, got {domain_size}")
        self.domain_size = domain_size
        self.levels = max(1, math.ceil(math.log2(domain_size))) + 1
        self._seed_key = derive_seed(seed, "l0sampler", domain_size, budget)
        self._membership = NestedSampler(self.levels - 1, derive_seed(self._seed_key, "membership"))
        self._level_sketches = [
            SparseRecoverySketch(
                domain_size,
                budget,
                derive_seed(self._seed_key, "level", j),
                rows=3,
            )
            for j in range(self.levels)
        ]
        self._tiebreak = KWiseHash.shared(4, derive_seed(self._seed_key, "tiebreak"))

    def update(self, index: int, delta: int) -> None:
        """Apply ``x[index] += delta``."""
        if delta == 0:
            return
        deepest = self._membership.level(index)
        for j in range(deepest + 1):
            self._level_sketches[j].update(index, delta)

    def sample(self) -> tuple[int, int] | None:
        """Return one nonzero ``(index, value)`` or ``None`` if it failed.

        ``None`` either means the vector is zero or (rarely) that every
        level was undecodable; callers that need to distinguish should ask
        :meth:`is_probably_zero`.  The returned coordinate is chosen by a
        seeded tie-break hash among the recovered survivors, making the
        choice stable under re-decoding.
        """
        for j in range(self.levels - 1, -1, -1):
            decoded = self._level_sketches[j].decode()
            if decoded is None:
                continue
            if decoded:
                index = min(decoded, key=lambda i: (self._tiebreak(i), i))
                return (index, decoded[index])
        return None

    def is_probably_zero(self) -> bool:
        """Whether the summarized vector is (whp) identically zero."""
        return self._level_sketches[0].is_zero()

    def combine(self, other: "L0Sampler", sign: int = 1) -> None:
        """In-place ``self += sign * other``; seeds must match."""
        if self._seed_key != other._seed_key:
            raise ValueError("cannot combine samplers with different seeds")
        for j in range(self.levels):
            self._level_sketches[j].combine(other._level_sketches[j], sign)

    def copy(self) -> "L0Sampler":
        """Return an independent copy with the same state and seed."""
        clone = object.__new__(L0Sampler)
        clone.domain_size = self.domain_size
        clone.levels = self.levels
        clone._seed_key = self._seed_key
        clone._membership = self._membership
        clone._level_sketches = [sketch.copy() for sketch in self._level_sketches]
        clone._tiebreak = self._tiebreak
        return clone

    def clone(self) -> "L0Sampler":
        """Uniform deep-copy entry point (see the sketch-wide ``clone()``
        contract in :mod:`repro.sketch`): alias of :meth:`copy`."""
        return self.copy()

    def state_ints(self) -> list[int]:
        """Dynamic state as a flat int sequence (for serialization)."""
        flat: list[int] = []
        for sketch in self._level_sketches:
            flat.extend(sketch.state_ints())
        return flat

    def state_len(self) -> int:
        """Length of :meth:`state_ints`, without materializing it."""
        return sum(sketch.state_len() for sketch in self._level_sketches)

    def from_state_ints(self, values: list[int]) -> "L0Sampler":
        """Overwrite the dynamic state from a :meth:`state_ints` sequence.

        Exact inverse of :meth:`state_ints` on a same-seed sampler: the
        flat sequence is split back into the per-level sketch states;
        returns ``self``.
        """
        cursor = 0
        for sketch in self._level_sketches:
            need = sketch.state_len()
            sketch.from_state_ints(values[cursor : cursor + need])
            cursor += need
        if cursor != len(values):
            raise ValueError(f"expected {cursor} state ints, got {len(values)}")
        return self

    def space_words(self) -> int:
        """Persistent state, in machine words."""
        return (
            self._membership.space_words()
            + self._tiebreak.space_words()
            + sum(sketch.space_words() for sketch in self._level_sketches)
        )
