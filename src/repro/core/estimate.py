"""Robust-connectivity estimation (Section 6.1; Algorithm 4, ESTIMATE).

For each queried pair ``(u, v)`` the estimator returns
``q̂_{λ,ε}(u,v) = 2^{-t*}`` where ``t*`` is the smallest subsampling
depth at which, in at least a ``(1 - ε)`` fraction of ``J`` independent
subsampling sequences, the endpoints are "λ-disconnected".

Disconnection is tested through a *λ-stretch distance oracle* built on
each subsampled edge set ``E^j_t`` — here, the paper's own two-pass
spanner (stretch ``λ = 2^k``).  Since the oracle may overestimate by a
factor ``λ``, the test threshold is ``λ²`` (line 16 of Algorithm 4): an
oracle estimate above ``λ²`` certifies true distance above ``λ``, and
this one-sided slack is exactly why the sampling lemma (Eq. 1) pays
``q̂ = Ω(R_e / λ²)``.

The estimator never touches the edge set directly — membership in
``E^j_t`` is a hash of the pair (Section 6.3's derandomization), and the
oracles are spanners, so the whole structure fits the dynamic streaming
model.  Oracles are supplied by the caller (offline-built or
stream-built), keeping this module mode-agnostic.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.parameters import SparsifierParams
from repro.graph.distances import bfs_distances
from repro.graph.graph import Graph, edge_index
from repro.sketch.hashing import NestedSampler
from repro.util.rng import derive_seed

__all__ = ["RobustConnectivityEstimator"]


class RobustConnectivityEstimator:
    """Query-time side of ESTIMATE, given the per-(j, t) oracle spanners.

    Parameters
    ----------
    num_vertices:
        Graph size ``n``.
    stretch:
        The oracle stretch ``λ`` (``2^k`` for the two-pass spanner).
    seed:
        Membership-hash randomness (must match the seed used to filter
        the streams the oracles were built on).
    params:
        ``J`` (repetitions), ``T`` (depths), ``ε`` (vote threshold).
    """

    def __init__(
        self,
        num_vertices: int,
        stretch: int,
        seed: int | str,
        params: SparsifierParams | None = None,
    ):
        self.num_vertices = num_vertices
        self.stretch = stretch
        self.params = params or SparsifierParams()
        self.reps = self.params.estimate_reps(num_vertices)
        self.depths = self.params.levels(num_vertices)
        self._samplers = [
            NestedSampler(self.depths, derive_seed(seed, "estimate-levels", j))
            for j in range(self.reps)
        ]
        # oracles[j][t] = spanner of E^j_t, filled by attach_oracle.
        self._oracles: list[list[Graph | None]] = [
            [None] * (self.depths + 1) for _ in range(self.reps)
        ]
        # Per-(j, t) BFS caches: source -> {target: distance}.
        self._bfs_cache: dict[tuple[int, int, int], dict[int, int]] = {}

    # ------------------------------------------------------------------
    # Membership (shared with whoever builds the oracles)
    # ------------------------------------------------------------------

    def member(self, j: int, t: int, u: int, v: int) -> bool:
        """Whether pair ``(u, v)`` belongs to ``E^j_t``.

        ``E^j_1`` contains every pair; deeper levels are nested halvings
        (rate ``2^{-(t-1)}``), exactly Algorithm 4's construction.
        """
        if t <= 1:
            return True
        pair = edge_index(u, v, self.num_vertices)
        return self._samplers[j].contains(pair, t - 1)

    def edge_filter(self, j: int, t: int):
        """A pair predicate selecting ``E^j_t`` (for spanner builders)."""
        return lambda u, v: self.member(j, t, u, v)

    def membership_coefficients(self) -> list[tuple[int, ...]]:
        """Each sequence ``j``'s nesting-hash coefficients, in ``j`` order,
        for evaluating every sequence's hash in one stacked pass (see
        :meth:`member_levels_of_values`)."""
        return [sampler.coefficients for sampler in self._samplers]

    def member_levels_of_values(self, j: int, values: np.ndarray) -> np.ndarray:
        """Vectorized nesting depths from sequence ``j``'s hash values of
        a batch of pair coordinates.

        A pair belongs to ``E^j_t`` iff its depth is ``>= t - 1`` — one
        hash evaluation per (pair, sequence ``j``) answers membership at
        *every* depth ``t``, which is how the streaming sparsifier
        evaluates all its oracle-slot filters in one vectorized pass per
        chunk.  Bit-identical to :meth:`member` element-wise (the nested
        sampler is integer-exact).
        """
        return self._samplers[j].levels_of_values(values)

    def attach_oracle(self, j: int, t: int, spanner: Graph) -> None:
        """Provide the distance oracle (a spanner of ``E^j_t``)."""
        if not 0 <= j < self.reps:
            raise IndexError(f"j {j} out of [0, {self.reps})")
        if not 1 <= t <= self.depths:
            raise IndexError(f"t {t} out of [1, {self.depths}]")
        self._oracles[j][t] = spanner

    def clone(self) -> "RobustConnectivityEstimator":
        """Independent copy: oracle slots are copied, BFS caches reset.

        The membership samplers are immutable shared randomness.  The
        cache starts empty so a clone whose oracles are re-attached (the
        snapshot path of :mod:`repro.service`) can never serve distances
        computed against another epoch's oracles.
        """
        clone = object.__new__(RobustConnectivityEstimator)
        clone.num_vertices = self.num_vertices
        clone.stretch = self.stretch
        clone.params = self.params
        clone.reps = self.reps
        clone.depths = self.depths
        clone._samplers = self._samplers
        clone._oracles = [list(row) for row in self._oracles]
        clone._bfs_cache = {}
        return clone

    def oracles_missing(self) -> int:
        """How many (j, t) slots still lack an oracle."""
        return sum(
            1 for j in range(self.reps) for t in range(1, self.depths + 1)
            if self._oracles[j][t] is None
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _oracle_distance(self, j: int, t: int, u: int, v: int) -> float:
        """Truncated-BFS distance in the (j, t) oracle spanner."""
        spanner = self._oracles[j][t]
        if spanner is None:
            raise RuntimeError(f"oracle ({j}, {t}) was never attached")
        threshold = self.stretch * self.stretch
        key = (j, t, u)
        cached = self._bfs_cache.get(key)
        if cached is None:
            cached = bfs_distances(spanner, u, cutoff=threshold + 1)
            self._bfs_cache[key] = cached
        return float(cached.get(v, math.inf))

    def query(self, u: int, v: int) -> float:
        """``q̂_{λ,ε}(u, v)``: the sampled-connectivity estimate."""
        threshold = self.stretch * self.stretch
        needed = math.ceil((1.0 - self.params.disagreement) * self.reps)
        for t in range(1, self.depths + 1):
            disconnected_votes = 0
            for j in range(self.reps):
                if self._oracle_distance(j, t, u, v) > threshold:
                    disconnected_votes += 1
            if disconnected_votes >= needed:
                return 2.0 ** (-t)
        return 2.0 ** (-self.depths)

    def sampling_level(self, u: int, v: int) -> int:
        """``j(e)`` with ``q̂(e) = 2^{-j(e)}`` (the weight exponent)."""
        return int(round(-math.log2(self.query(u, v))))
