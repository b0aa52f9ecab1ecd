"""k-wise independent hash families over a Mersenne-prime field.

The paper's streaming constructions consume three kinds of limited
randomness, all of which reduce to evaluating a ``k``-wise independent
hash function on demand:

* the vertex samples ``C_r`` (``Pr[v in C_r] = n^{-r/k}``),
* the nested edge samples ``E_j`` (``Pr[(a,b) in E_j] = 2^{-j}``, with
  ``E_0 ⊇ E_1 ⊇ ...``), and
* the bucket choices inside the sparse-recovery sketches.

Section 6.3 of the paper notes that ``O(log n)``-wise independence
suffices for the ``E_j`` and that Nisan's generator can replace the
remaining perfect randomness; lazily evaluated polynomial hashing is the
standard practical surrogate and keeps each hash function at ``k`` field
elements of state.
"""

from __future__ import annotations

from repro.util.rng import derive_seed, rng_from_seed

__all__ = ["MERSENNE_61", "KWiseHash", "NestedSampler"]

# numpy is the batch engine's substrate; the scalar paths never touch it.
import numpy as _np

#: The Mersenne prime 2^61 - 1; field arithmetic mod this prime is exact in
#: Python integers and collision probabilities are ~2^-61 per comparison.
MERSENNE_61 = (1 << 61) - 1


def _field_element(rng) -> int:
    """A uniform draw from ``[0, p)``, bit for bit ``rng.randrange(p)``:
    61 random bits, redrawn while they read ``p`` itself (``randrange``'s
    own rejection loop, minus its argument checks)."""
    value = rng.getrandbits(61)
    while value == MERSENNE_61:
        value = rng.getrandbits(61)
    return value


class KWiseHash:
    """A ``k``-wise independent hash function ``h: Z -> [0, p)``.

    Implemented as a random degree-``(k-1)`` polynomial over the field
    ``F_p`` with ``p = 2^61 - 1``.  Evaluation is Horner's rule, O(k).

    Two instances built from the same ``seed`` (and same ``k``) are
    identical — this is how sketches that must be *summable* share their
    randomness.  Instances are immutable after construction, so
    :meth:`shared` may intern them (sketch stacks that share per-round
    seeds then also share the hash objects, a large memory win).
    """

    __slots__ = ("k", "_coeffs")

    _intern_cache: dict[tuple[int, int], "KWiseHash"] = {}

    @classmethod
    def shared(cls, k: int, seed: int | str) -> "KWiseHash":
        """Return a (possibly cached) instance for ``(k, seed)``."""
        key = (k, derive_seed(seed, "intern-key"))
        cached = cls._intern_cache.get(key)
        if cached is None:
            cached = cls(k, seed)
            cls._intern_cache[key] = cached
        return cached

    def __init__(self, k: int, seed: int | str):
        if k < 1:
            raise ValueError(f"independence k must be >= 1, got {k}")
        self.k = k
        rng = rng_from_seed(seed, "kwise", k)
        self._coeffs = [_field_element(rng) for _ in range(k)]
        # A zero leading coefficient is harmless (it only lowers the
        # polynomial degree), so no rejection sampling is needed.

    def __call__(self, x: int) -> int:
        """Hash ``x`` to a field element in ``[0, 2^61 - 1)``."""
        acc = 0
        for coeff in self._coeffs:
            acc = (acc * x + coeff) % MERSENNE_61
        return acc

    @property
    def coefficients(self) -> tuple[int, ...]:
        """The polynomial's coefficients (read-only; for stacked
        evaluation of many hashes at once — see
        :func:`repro.sketch.kernels.polyhash61_multi` and
        :func:`repro.sketch.kernels.stack_positions_terms`)."""
        return tuple(self._coeffs)

    # Instances are immutable after construction, so copying is sharing.
    # This keeps ``clone()``/``copy.deepcopy`` of the sketches cheap and
    # preserves the interning win of :meth:`shared` across clones.
    def __copy__(self) -> "KWiseHash":
        return self

    def __deepcopy__(self, memo) -> "KWiseHash":
        return self

    def unit(self, x: int) -> float:
        """Hash ``x`` to a float in ``[0, 1)`` (k-wise independent)."""
        return self(x) / MERSENNE_61

    def bucket(self, x: int, m: int) -> int:
        """Hash ``x`` to a bucket in ``[0, m)``."""
        if m <= 0:
            raise ValueError(f"bucket count must be positive, got {m}")
        return self(x) % m

    def included(self, x: int, probability: float) -> bool:
        """Return whether ``x`` belongs to a sample taken at ``probability``."""
        return self.unit(x) < probability

    # -- batched evaluation (the numpy fast path) ----------------------

    def values_array(self, xs: "_np.ndarray") -> "_np.ndarray":
        """Vectorized :meth:`__call__`: field values for a batch of keys.

        Bit-identical to evaluating the scalar hash element-wise (the
        batched sketches depend on this — see
        :mod:`repro.sketch.kernels`).
        """
        from repro.sketch.kernels import polyhash61

        return polyhash61(self._coeffs, xs)

    def bucket_array(self, xs: "_np.ndarray", m: int) -> "_np.ndarray":
        """Vectorized :meth:`bucket`: bucket choices for a batch of keys."""
        if m <= 0:
            raise ValueError(f"bucket count must be positive, got {m}")
        return (self.values_array(xs) % _np.uint64(m)).astype(_np.int64)

    def space_words(self) -> int:
        """Persistent state, in machine words (one per coefficient)."""
        return self.k


class NestedSampler:
    """Nested geometric samples ``S_0 ⊇ S_1 ⊇ ...`` with ``Pr[x in S_j] = 2^-j``.

    A single hash value determines membership at *every* level: ``x`` is
    in ``S_j`` iff its hashed field value is below ``2^{61-j}``, i.e. iff
    the top ``j`` bits of the 61-bit hash are zero — the integer-exact
    form of "hashed unit value below ``2^-j``".  (Integer comparisons
    keep the scalar and batched evaluation paths bit-identical; a float
    surrogate would round differently between the two.)  :meth:`level`
    returns the deepest level containing ``x`` so callers can enumerate
    ``j = 0..level(x)`` in one evaluation — the access pattern used by
    the per-level sketches ``S^r_j(u)`` of Algorithm 1.
    """

    __slots__ = ("max_level", "_hash")

    def __init__(self, max_level: int, seed: int | str, independence: int = 16):
        if max_level < 0:
            raise ValueError(f"max_level must be >= 0, got {max_level}")
        self.max_level = max_level
        self._hash = KWiseHash.shared(independence, derive_seed(seed, "nested"))

    # Immutable (a max level plus an interned hash): share under copying,
    # mirroring :meth:`KWiseHash.__deepcopy__`.
    def __copy__(self) -> "NestedSampler":
        return self

    def __deepcopy__(self, memo) -> "NestedSampler":
        return self

    @property
    def coefficients(self) -> tuple[int, ...]:
        """The membership polynomial's coefficients (for stacked
        evaluation of several samplers' memberships at once — see
        :func:`repro.sketch.kernels.polyhash61_multi`)."""
        return self._hash.coefficients

    def level(self, x: int) -> int:
        """Deepest ``j`` (capped at ``max_level``) with ``x`` in ``S_j``."""
        value = self._hash(x)
        if value == 0:
            return self.max_level
        return min(self.max_level, max(0, 61 - value.bit_length()))

    def contains(self, x: int, j: int) -> bool:
        """Whether ``x`` belongs to the level-``j`` sample ``S_j``."""
        if j == 0:
            return True
        value = self._hash(x)
        if j > 61:
            return value == 0
        return value < (1 << (61 - j))

    def level_array(self, xs: "_np.ndarray") -> "_np.ndarray":
        """Vectorized :meth:`level`: deepest levels for a batch of keys.

        Bit-identical to the scalar method element-wise; this is what
        lets the columnar stacks route each coordinate to exactly the
        same per-level rows the scalar path would touch.
        """
        return self.levels_of_values(self._hash.values_array(xs))

    def levels_of_values(self, values: "_np.ndarray") -> "_np.ndarray":
        """Deepest levels from precomputed membership hash values.

        The second half of :meth:`level_array`, for callers that
        evaluate several samplers' hashes in one stacked pass (any
        array shape; samplers must share ``max_level``).
        """
        # x in S_j  <=>  value < 2^(61-j); thresholds ascending in j's
        # reverse order so searchsorted counts the failed levels.
        depth = min(self.max_level, 61)
        thresholds = _np.array(
            [1 << (61 - j) for j in range(depth, 0, -1)], dtype=_np.uint64
        )
        failed = _np.searchsorted(thresholds, values, side="right")
        levels = (depth - failed).astype(_np.int64)
        if self.max_level > 61:
            levels[values == 0] = self.max_level
        return levels

    def space_words(self) -> int:
        """Persistent state, in machine words."""
        return self._hash.space_words()
