"""Sampling via augmented spanners (Section 6.2; Algorithm 5).

One invocation ``s`` of SAMPLE-AUGMENTED-SPANNER holds, for each
geometric level ``j = 1..H``, an edge sample ``E_{s,j}`` (independent
Bernoulli at rate ``2^-j``, hash-derived) and an *augmented* spanner of
it.  Its output keeps, for every edge ``e`` recovered at level ``j``
(either as a spanner edge or as a member of the observed set
``Σ(R_{s,j})``), weight ``2^j`` — but only when the estimator says
``q̂(e) = 2^-j``; other recovered edges get weight 0 (line 7).

The key correctness fact (Lemma 22): if ``q̂(e) = 2^-j`` then with
probability ``>= 1 - 2ε`` the sampled set ``E_{s,j} \\ {e}`` has no short
path between ``e``'s endpoints, so *any* λ-stretch spanner of ``E_{s,j}``
that contains ``e``'s endpoints at distance 1 must output ``e`` — the
sampler inherits near-independent Bernoulli behaviour from the sample
itself (Claim 23).
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import edge_index
from repro.sketch.hashing import MERSENNE_61, KWiseHash
from repro.util.rng import derive_seed

__all__ = ["SpannerSampleLevels"]

#: Independence of the per-(s, j) membership hashes (O(log n)-wise
#: suffices per Section 6.3; 16 is comfortable).
_MEMBERSHIP_INDEPENDENCE = 16


def _rate_threshold(j: int) -> int:
    """Largest field-value threshold with ``value < threshold`` iff
    ``value / p < 2^-j`` as exact rationals: ``ceil(p / 2^j)``.

    Integer-exact Bernoulli(``2^-j``) membership — the scalar and
    vectorized evaluations agree bit-for-bit, with none of the boundary
    rounding a float ``unit() < 2.0**-j`` comparison would admit.
    """
    return (MERSENNE_61 + (1 << j) - 1) >> j


class SpannerSampleLevels:
    """Membership bookkeeping for one sampling invocation ``s``.

    The spanners themselves are built by the caller (offline or
    streaming) on the filtered edge sets this class defines; recovered
    edge sets are registered back via :meth:`attach_level_output`.
    """

    def __init__(self, num_vertices: int, levels: int, seed: int | str, invocation: int):
        self.num_vertices = num_vertices
        self.levels = levels
        self.invocation = invocation
        self._hashes = [
            KWiseHash.shared(
                _MEMBERSHIP_INDEPENDENCE,
                derive_seed(seed, "sample-level", invocation, j),
            )
            for j in range(levels + 1)
        ]
        # level -> set of recovered (spanner ∪ observed) edges.
        self._outputs: dict[int, set[tuple[int, int]]] = {}

    def clone(self) -> "SpannerSampleLevels":
        """Independent copy: registered level outputs are copied, the
        (immutable) membership hashes are shared."""
        clone = object.__new__(SpannerSampleLevels)
        clone.num_vertices = self.num_vertices
        clone.levels = self.levels
        clone.invocation = self.invocation
        clone._hashes = self._hashes
        clone._outputs = {j: set(edges) for j, edges in self._outputs.items()}
        return clone

    def member(self, j: int, u: int, v: int) -> bool:
        """Whether pair ``(u, v)`` belongs to ``E_{s,j}`` (rate ``2^-j``)."""
        if not 1 <= j <= self.levels:
            raise IndexError(f"level {j} out of [1, {self.levels}]")
        pair = edge_index(u, v, self.num_vertices)
        return self._hashes[j](pair) < _rate_threshold(j)

    def edge_filter(self, j: int):
        """A pair predicate selecting ``E_{s,j}``."""
        return lambda u, v: self.member(j, u, v)

    def membership_coefficients(self, j: int) -> tuple[int, ...]:
        """Level ``j``'s membership-hash coefficients, for evaluating many
        levels' hashes in one stacked pass (see :meth:`member_of_values`)."""
        if not 1 <= j <= self.levels:
            raise IndexError(f"level {j} out of [1, {self.levels}]")
        return self._hashes[j].coefficients

    def member_of_values(self, j: int, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`member` from level ``j``'s hash values of a
        batch of pair coordinates.

        One polynomial-hash evaluation per (pair, level) replaces the
        per-token Python filter in the streaming sparsifier's ingest
        path; bit-identical to the scalar predicate element-wise.
        """
        if not 1 <= j <= self.levels:
            raise IndexError(f"level {j} out of [1, {self.levels}]")
        return values < np.uint64(_rate_threshold(j))

    def attach_level_output(self, j: int, recovered_edges: set[tuple[int, int]]) -> None:
        """Register ``S_j`` — the level-``j`` spanner's recovered edges
        (spanner edges plus the observed set in augmented mode)."""
        self._outputs[j] = {(min(u, v), max(u, v)) for u, v in recovered_edges}

    def weighted_output(self, level_of_edge) -> dict[tuple[int, int], float]:
        """Line 7 of Algorithm 5: keep edge ``e`` from level ``j`` with
        weight ``2^j`` iff ``level_of_edge(e) == j``; weight-0 otherwise.

        ``level_of_edge`` maps a canonical pair to its estimator level
        ``j(e)``.
        """
        kept: dict[tuple[int, int], float] = {}
        for j, edges in self._outputs.items():
            for edge in edges:
                if level_of_edge(edge) == j:
                    kept[edge] = float(2 ** j)
        return kept

    def recovered_edges(self) -> set[tuple[int, int]]:
        """Union of all levels' recovered edges (candidate support)."""
        union: set[tuple[int, int]] = set()
        for edges in self._outputs.values():
            union |= edges
        return union
