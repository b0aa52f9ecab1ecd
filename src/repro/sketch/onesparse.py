"""Exact 1-sparse recovery over a turnstile stream (Ganguly's detector).

This is the atomic building block of every sketch in the repository.  A
detector summarizes a dynamic integer vector ``x`` (updates
``x[i] += delta``) with three counters:

* ``total``       = sum_i x[i]                     (plain integer),
* ``index_sum``   = sum_i i * x[i]                 (plain integer),
* ``fingerprint`` = sum_i x[i] * z^i  mod p        (field element),

where ``z`` is a seeded random field element and ``p = 2^61 - 1``.  If
``x`` has exactly one nonzero coordinate ``x[i] = v`` then
``index_sum / total == i`` and the fingerprint equals ``v * z^i``; any
other vector passes this test with probability at most ``~||x||_0 / p``.

The structure is linear: detectors with the same seed can be added and
subtracted coordinate-wise, which is what lets Algorithm 1 sum the
per-vertex sketches of a cluster into a cluster sketch.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.sketch.hashing import MERSENNE_61
from repro.util.rng import derive_seed

__all__ = ["DecodeStatus", "OneSparseResult", "OneSparseDetector"]


class DecodeStatus(Enum):
    """Outcome of attempting to decode a detector."""

    ZERO = "zero"  # the summarized vector is (whp) identically zero
    ONE_SPARSE = "one_sparse"  # exactly one nonzero coordinate recovered
    NOT_ONE_SPARSE = "not_one_sparse"  # more than one nonzero coordinate


@dataclass(frozen=True)
class OneSparseResult:
    """Decode result: ``status`` plus the recovered coordinate if 1-sparse."""

    status: DecodeStatus
    index: int | None = None
    value: int | None = None


class OneSparseDetector:
    """Detects whether a dynamic vector is 0-sparse or 1-sparse, exactly.

    Parameters
    ----------
    domain_size:
        Coordinates are integers in ``[0, domain_size)``.
    seed:
        Seed for the fingerprint base ``z``.  Detectors are summable iff
        they share a seed (enforced in :meth:`combine`).
    """

    __slots__ = ("domain_size", "_seed_key", "_z", "total", "index_sum", "fingerprint")

    def __init__(self, domain_size: int, seed: int | str):
        if domain_size <= 0:
            raise ValueError(f"domain_size must be positive, got {domain_size}")
        self.domain_size = domain_size
        self._seed_key = derive_seed(seed, "onesparse-z")
        # z must be nonzero so that z^i is invertible and distinct powers
        # separate indices.
        self._z = 1 + self._seed_key % (MERSENNE_61 - 1)
        self.total = 0
        self.index_sum = 0
        self.fingerprint = 0

    def update(self, index: int, delta: int) -> None:
        """Apply ``x[index] += delta``."""
        if not 0 <= index < self.domain_size:
            raise IndexError(f"index {index} out of domain [0, {self.domain_size})")
        if delta == 0:
            return
        self.total += delta
        self.index_sum += index * delta
        self.fingerprint = (self.fingerprint + delta * pow(self._z, index, MERSENNE_61)) % MERSENNE_61

    def decode(self) -> OneSparseResult:
        """Classify the summarized vector (correct whp over the seed)."""
        if self.total == 0 and self.index_sum == 0 and self.fingerprint == 0:
            return OneSparseResult(DecodeStatus.ZERO)
        if self.total != 0 and self.index_sum % self.total == 0:
            index = self.index_sum // self.total
            if 0 <= index < self.domain_size:
                expected = (self.total % MERSENNE_61) * pow(self._z, index, MERSENNE_61) % MERSENNE_61
                if expected == self.fingerprint:
                    return OneSparseResult(DecodeStatus.ONE_SPARSE, index, self.total)
        return OneSparseResult(DecodeStatus.NOT_ONE_SPARSE)

    def is_zero(self) -> bool:
        """Whether the summarized vector is (whp) identically zero."""
        return self.decode().status is DecodeStatus.ZERO

    def combine(self, other: "OneSparseDetector", sign: int = 1) -> None:
        """In-place ``self += sign * other`` (linearity).

        Raises ``ValueError`` if the detectors were built from different
        seeds or domains, since then their fingerprints are incompatible.
        """
        if self._seed_key != other._seed_key or self.domain_size != other.domain_size:
            raise ValueError("cannot combine detectors with different seeds/domains")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        self.total += sign * other.total
        self.index_sum += sign * other.index_sum
        self.fingerprint = (self.fingerprint + sign * other.fingerprint) % MERSENNE_61

    def copy(self) -> "OneSparseDetector":
        """Return an independent copy with the same state and seed."""
        clone = object.__new__(OneSparseDetector)
        clone.domain_size = self.domain_size
        clone._seed_key = self._seed_key
        clone._z = self._z
        clone.total = self.total
        clone.index_sum = self.index_sum
        clone.fingerprint = self.fingerprint
        return clone

    def clone(self) -> "OneSparseDetector":
        """Uniform deep-copy entry point (see the sketch-wide ``clone()``
        contract in :mod:`repro.sketch`): alias of :meth:`copy`."""
        return self.copy()

    @property
    def fingerprint_base(self) -> int:
        """The fingerprint base ``z`` (needed to *encode* raw state
        deltas externally, e.g. by the linear hash tables)."""
        return self._z

    def state_vector(self) -> tuple[int, int, int]:
        """The raw counters ``(total, index_sum, fingerprint)``.

        Used when a detector itself becomes the *payload* of an outer
        linear structure (the hash tables of Algorithm 2 serialize inner
        sketches this way).
        """
        return (self.total, self.index_sum, self.fingerprint)

    def load_state_vector(self, state: tuple[int, int, int]) -> None:
        """Overwrite counters from :meth:`state_vector` output.

        The fingerprint component is reduced mod p: an outer linear
        structure accumulates it over the plain integers, and reduction is
        a ring homomorphism, so the reduced value is the true fingerprint.
        """
        total, index_sum, fingerprint = state
        self.total = total
        self.index_sum = index_sum
        self.fingerprint = fingerprint % MERSENNE_61

    def state_ints(self) -> list[int]:
        """Dynamic state as a flat int sequence (for serialization)."""
        return [self.total, self.index_sum, self.fingerprint]

    def state_len(self) -> int:
        """Length of :meth:`state_ints`, without materializing it."""
        return 3

    def from_state_ints(self, values: list[int]) -> "OneSparseDetector":
        """Overwrite the dynamic state from a :meth:`state_ints` sequence.

        Exact inverse of :meth:`state_ints` on a same-seed detector;
        returns ``self``.  The fingerprint is reduced mod p so unreduced
        linear accumulations (see :meth:`load_state_vector`) also load.
        """
        if len(values) != 3:
            raise ValueError(f"expected 3 state ints, got {len(values)}")
        self.total = int(values[0])
        self.index_sum = int(values[1])
        self.fingerprint = int(values[2]) % MERSENNE_61
        return self

    def space_words(self) -> int:
        """Persistent state, in machine words (three counters + base)."""
        return 4

    def __repr__(self) -> str:
        return (
            f"OneSparseDetector(domain_size={self.domain_size}, total={self.total}, "
            f"index_sum={self.index_sum})"
        )
