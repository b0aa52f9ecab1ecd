"""The one-pass ``O(n/d)``-additive spanner (Theorem 3; Algorithm 3).

Single pass over the dynamic stream, keeping per vertex:

* ``SKETCH_{~O(d)}(N(u))`` — recovers *all* neighbors of low-degree
  vertices (their edges form ``E_low``);
* a sampler of ``N(u) ∩ C`` — picks each high-degree vertex's parent
  center (the paper's ``A^r(u) = SKETCH(N(u) ∩ C ∩ Z^r)`` stack is
  exactly an L0-sampler, which is how it is realized here);
* a sketched degree estimate (Theorem 9) to decide low vs high;
* AGM spanning-forest sketches (Theorem 10).

After the pass: decode ``E_low``, attach high-degree vertices to centers
(forest ``F`` of stars), *subtract* ``E_low`` from the AGM sketches by
linearity, collapse the star clusters into supernodes, and extract a
spanning forest ``F'`` of the contracted remainder.  The spanner is
``E_low ∪ F ∪ F'``; every shortest path detours at most twice per
cluster plus once per contracted-forest edge, i.e. ``+O(n/d)`` in total
because there are only ``O(n/d)`` clusters.
"""

from __future__ import annotations

from repro.agm.spanning_forest import AgmSketch
from repro.core.parameters import AdditiveParams
from repro.graph.graph import Graph
from repro.sketch.distinct import DistinctElementsSketch
from repro.sketch.hashing import KWiseHash
from repro.sketch.l0sampler import L0Sampler
from repro.sketch.sparse_recovery import SparseRecoverySketch
from repro.stream.pipeline import StreamingAlgorithm, run_passes
from repro.stream.space import SpaceReport
from repro.stream.stream import DynamicStream
from repro.stream.updates import EdgeUpdate
from repro.util.rng import derive_seed

__all__ = ["AdditiveSpannerBuilder"]

#: Independence of the center-membership hash.
_CENTER_INDEPENDENCE = 16


class AdditiveSpannerBuilder(StreamingAlgorithm):
    """Dynamic-stream additive spanner: one pass, ``~O(nd)`` space.

    Parameters
    ----------
    num_vertices:
        Graph size ``n``.
    d:
        Space/approximation knob: space ``~O(nd)``, additive distortion
        ``O(n/d)``.
    seed:
        Randomness name.
    params:
        Constant calibration, see
        :class:`~repro.core.parameters.AdditiveParams`.
    """

    def __init__(
        self,
        num_vertices: int,
        d: int,
        seed: int | str,
        params: AdditiveParams | None = None,
    ):
        if num_vertices <= 0:
            raise ValueError(f"num_vertices must be positive, got {num_vertices}")
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.num_vertices = num_vertices
        self.d = d
        self.params = params or AdditiveParams()
        self._seed = derive_seed(seed)

        self._center_hash = KWiseHash.shared(
            _CENTER_INDEPENDENCE, derive_seed(seed, "centers")
        )
        self._center_probability = self.params.center_probability(num_vertices, d)
        self.degree_threshold = self.params.degree_threshold(num_vertices, d)

        budget = self.params.neighborhood_budget(num_vertices, d)
        self._neighborhoods = [
            SparseRecoverySketch(
                num_vertices,
                budget,
                derive_seed(seed, "neighborhood"),
                rows=3,
            )
            for _ in range(num_vertices)
        ]
        self._parent_samplers = [
            L0Sampler(
                num_vertices,
                derive_seed(seed, "parent-sampler"),
                budget=self.params.parent_budget,
            )
            for _ in range(num_vertices)
        ]
        self._degree_sketches = [
            DistinctElementsSketch(
                num_vertices,
                derive_seed(seed, "degree"),
                reps=self.params.distinct_reps,
            )
            for _ in range(num_vertices)
        ]
        self._agm = AgmSketch(num_vertices, derive_seed(seed, "agm"))

        self.diagnostics: dict[str, int] = {
            "low_degree": 0,
            "high_degree": 0,
            "orphan_high_degree": 0,
            "neighborhood_decode_failures": 0,
        }

    def is_center(self, vertex: int) -> bool:
        """Whether ``vertex`` is in the center sample ``C``."""
        return self._center_hash.unit(vertex) < self._center_probability

    @property
    def passes_required(self) -> int:
        return 1

    def process(self, update: EdgeUpdate, pass_index: int) -> None:
        u, v, sign = update.u, update.v, update.sign
        self._neighborhoods[u].update(v, sign)
        self._neighborhoods[v].update(u, sign)
        self._degree_sketches[u].update(v, sign)
        self._degree_sketches[v].update(u, sign)
        if self.is_center(v):
            self._parent_samplers[u].update(v, sign)
        if self.is_center(u):
            self._parent_samplers[v].update(u, sign)
        self._agm.update(u, v, sign)

    def finalize(self) -> Graph:
        low_edges: dict[tuple[int, int], int] = {}
        star_edges: list[tuple[int, int]] = []
        cluster_of = list(range(self.num_vertices))  # default: own singleton

        high_vertices = []
        for u in range(self.num_vertices):
            degree_estimate = self._degree_sketches[u].estimate()
            decoded = None
            if degree_estimate <= 2.0 * self.degree_threshold:
                decoded = self._neighborhoods[u].decode()
                if decoded is None:
                    self.diagnostics["neighborhood_decode_failures"] += 1
            if decoded is not None:
                self.diagnostics["low_degree"] += 1
                for w, multiplicity in decoded.items():
                    pair = (min(u, w), max(u, w))
                    low_edges[pair] = multiplicity
            else:
                self.diagnostics["high_degree"] += 1
                high_vertices.append(u)

        for u in high_vertices:
            sampled = self._parent_samplers[u].sample()
            if sampled is None:
                self.diagnostics["orphan_high_degree"] += 1
                continue
            center, _ = sampled
            star_edges.append((u, center))
            cluster_of[u] = center

        # Centers anchor their own clusters (their id is the group id).
        # G' = G - E_low, then contract the clusters and extract F'.
        self._agm.subtract_edges(low_edges)
        contracted_forest = self._agm.spanning_forest(supernodes=cluster_of)

        spanner = Graph(self.num_vertices)
        for (u, v) in low_edges:
            spanner.add_edge(u, v)
        for u, v in star_edges:
            if not spanner.has_edge(u, v):
                spanner.add_edge(u, v)
        for u, v in contracted_forest:
            if not spanner.has_edge(u, v):
                spanner.add_edge(u, v)
        return spanner

    def run(self, stream: DynamicStream) -> Graph:
        """Convenience: run the single pass over ``stream``."""
        return run_passes(stream, self)

    def state_ints(self) -> list[int]:
        """Dynamic state as a flat int sequence.

        This is exactly Alice's message in the Theorem 4 game: the full
        sketch state (seeds excluded — shared randomness), serializable
        via :func:`repro.sketch.serialize.pack_ints`.
        """
        flat: list[int] = []
        for sketch in self._neighborhoods:
            flat.extend(sketch.state_ints())
        for sampler in self._parent_samplers:
            flat.extend(sampler.state_ints())
        for sketch in self._degree_sketches:
            flat.extend(sketch.state_ints())
        agm = self._agm.state_ints()
        flat.extend(agm if isinstance(agm, list) else agm.tolist())
        return flat

    def load_state_ints(self, values: list[int], cursor: int = 0) -> int:
        """Consume one serialized builder state from ``values`` at
        ``cursor``; returns the new cursor.

        Exact inverse of :meth:`state_ints` on a same-seed/same-shape
        builder (Bob's side of the Theorem 4 game): the per-vertex
        components are fixed-length (their ``state_len()``), the AGM
        tail is self-delimiting, so the whole sequence concatenates
        without length prefixes.
        """
        for sketch in self._neighborhoods:
            step = sketch.state_len()
            sketch.from_state_ints(values[cursor : cursor + step])
            cursor += step
        for sampler in self._parent_samplers:
            step = sampler.state_len()
            sampler.from_state_ints(values[cursor : cursor + step])
            cursor += step
        for sketch in self._degree_sketches:
            step = sketch.state_len()
            sketch.from_state_ints(values[cursor : cursor + step])
            cursor += step
        return self._agm.load_state_ints(values, cursor)

    def from_state_ints(self, values: list[int]) -> "AdditiveSpannerBuilder":
        """Overwrite the dynamic state from a :meth:`state_ints` sequence.

        Returns ``self``; raises if the sequence's length does not match
        exactly (a truncated or over-long wire is corruption, never
        silently tolerated).
        """
        try:
            cursor = self.load_state_ints(values, 0)
        except IndexError as exc:
            raise ValueError("truncated state sequence") from exc
        if cursor != len(values):
            raise ValueError(f"expected {cursor} state ints, got {len(values)}")
        return self

    def space_report(self) -> SpaceReport:
        """Measured words held by every sketch component."""
        report = SpaceReport()
        report.add("center seeds", self._center_hash.space_words())
        for sketch in self._neighborhoods:
            report.add("neighborhood sketches", sketch.space_words())
        for sampler in self._parent_samplers:
            report.add("parent samplers", sampler.space_words())
        for sketch in self._degree_sketches:
            report.add("degree sketches", sketch.space_words())
        report.add("agm sketches", self._agm.space_words())
        return report

    def space_words(self) -> int:
        return self.space_report().total_words()
