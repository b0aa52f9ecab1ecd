"""Spectral sparsification via spanners (Corollary 2; Section 6).

AUGMENTED-SPANNER-SPARSIFY (Algorithm 6):

1. ``q̂ = ESTIMATE(G, λ, ε)`` — robust connectivities from ``J x T``
   subsampled distance oracles (:mod:`repro.core.estimate`);
2. ``Z = Θ(λ² log n / ((1-ε) ε³))`` invocations of
   SAMPLE-AUGMENTED-SPANNER (:mod:`repro.core.sample_spanner`), each
   holding ``H`` geometric edge-sample levels with an augmented spanner
   per level;
3. output ``(1/Z) Σ_s X_s`` — for each edge, ``2^{j(e)}`` per round that
   recovered it at its estimator level, averaged.

Every oracle and every sampler level is an instance of the paper's
two-pass spanner, so the entire pipeline runs in **two passes** over the
dynamic stream (all first passes share pass 1, all second passes share
pass 2) — that is Corollary 2.  Two drivers are provided:

* :class:`SpectralSparsifier` — *offline-oracle* mode: identical
  pipeline, but each sub-spanner is built by the offline two-phase
  construction on the hash-filtered subgraph.  Semantics match the
  streaming mode (same filters, same estimator, same assembly); only the
  sketch decoding is bypassed, which lets experiments reach larger
  ``n``/``Z`` (E2 reports which mode produced each row).
* :func:`sparsify_stream` — full streaming mode over a
  :class:`~repro.stream.stream.DynamicStream`.

Weighted inputs reduce to ``O(log(w_max/w_min)/ε)`` unweighted instances
by weight class (Section 6's rounding), via :func:`sparsify_weighted_graph`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.estimate import RobustConnectivityEstimator
from repro.core.offline_spanner import offline_two_phase_spanner
from repro.core.parameters import SpannerParams, SparsifierParams
from repro.core.sample_spanner import SpannerSampleLevels
from repro.core.two_pass_spanner import TwoPassSpannerBuilder
from repro.graph.graph import Graph
from repro.graph.vertex_space import VertexSpace, as_vertex_space
from repro.sketch.kernels import polyhash61_multi
from repro.sketch.serialize import concat_ints
from repro.stream.batching import aggregate_updates, updates_to_arrays
from repro.stream.pipeline import StreamingAlgorithm, run_passes
from repro.stream.space import SpaceReport
from repro.stream.stream import DynamicStream
from repro.stream.updates import EdgeUpdate
from repro.util.rng import derive_seed

__all__ = [
    "SpectralSparsifier",
    "StreamingSparsifier",
    "StreamingWeightedSparsifier",
    "sparsify_stream",
    "sparsify_weighted_graph",
]

#: Slimmed spanner constants for the pipeline's many sub-spanners: the
#: sampler tolerates occasional coverage misses (they only shave the
#: (1-2eps) output probability), so one Y-stack plus repair suffices.
_SUB_SPANNER_PARAMS = SpannerParams(table_stacks=1, table_capacity_factor=0.75)

#: Up to this many chunk tokens the per-token filter loop beats the
#: vectorized membership machinery (n=32 slim pipeline, pass 0: loop
#: ~0.1 ms per token, the stacked-hash path ~0.7-1.2 ms per chunk).
_SMALL_BATCH = 8


class _PipelineCore:
    """State and assembly shared by the offline and streaming drivers."""

    def __init__(
        self,
        num_vertices: int | VertexSpace,
        seed: int | str,
        k: int,
        params: SparsifierParams | None,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.space = as_vertex_space(num_vertices)
        num_vertices = self.space.universe_size
        self.num_vertices = num_vertices
        self.k = k
        self.stretch = 2 ** k
        self.params = params or SparsifierParams()
        self.seed = derive_seed(seed)
        self.estimator = RobustConnectivityEstimator(
            num_vertices, self.stretch, derive_seed(seed, "estimate"), self.params
        )
        self.rounds = self.params.sampling_rounds(self.stretch, num_vertices)
        self.levels = self.params.levels(num_vertices)
        self.samplers = [
            SpannerSampleLevels(num_vertices, self.levels, derive_seed(seed, "sampling"), s)
            for s in range(self.rounds)
        ]

    def clone(self) -> "_PipelineCore":
        """Independent copy (estimator and samplers cloned, params shared).

        Needed because :meth:`StreamingSparsifier.finalize` *writes into*
        the core (attaching oracles and level outputs); a snapshot clone
        must attach to its own core or it would pollute the live one.
        """
        clone = object.__new__(_PipelineCore)
        clone.space = self.space
        clone.num_vertices = self.num_vertices
        clone.k = self.k
        clone.stretch = self.stretch
        clone.params = self.params
        clone.seed = self.seed
        clone.estimator = self.estimator.clone()
        clone.rounds = self.rounds
        clone.levels = self.levels
        clone.samplers = [sampler.clone() for sampler in self.samplers]
        return clone

    def oracle_slots(self) -> list[tuple[int, int]]:
        """All (j, t) estimator-oracle indices."""
        return [
            (j, t)
            for j in range(self.estimator.reps)
            for t in range(1, self.estimator.depths + 1)
        ]

    def sample_slots(self) -> list[tuple[int, int]]:
        """All (s, j) sampler-level indices."""
        return [(s, j) for s in range(self.rounds) for j in range(1, self.levels + 1)]

    def assemble(self) -> Graph:
        """Lines 6-8 of Algorithm 6: average the weighted samples."""
        candidates: set[tuple[int, int]] = set()
        for sampler in self.samplers:
            candidates |= sampler.recovered_edges()
        level_cache: dict[tuple[int, int], int] = {}

        def level_of_edge(edge: tuple[int, int]) -> int:
            level = level_cache.get(edge)
            if level is None:
                level = self.estimator.sampling_level(edge[0], edge[1])
                level_cache[edge] = level
            return level

        accumulated: dict[tuple[int, int], float] = {}
        for sampler in self.samplers:
            for edge, weight in sampler.weighted_output(level_of_edge).items():
                accumulated[edge] = accumulated.get(edge, 0.0) + weight

        sparsifier = Graph(self.num_vertices)
        for (u, v), total in accumulated.items():
            weight = total / self.rounds
            if weight > 0:
                sparsifier.add_edge(u, v, weight)
        return sparsifier


class SpectralSparsifier:
    """Offline-oracle driver for the two-pass sparsification pipeline.

    Parameters
    ----------
    num_vertices, seed:
        Graph size and randomness name.
    k:
        Spanner depth; oracle stretch is ``λ = 2^k``.  The paper sets
        ``k = sqrt(log n)`` for the ``n^{1+o(1)}`` bound; at bench scale
        ``k = 2`` or ``3`` is the right regime.
    params:
        Pipeline constants (``J``, ``T``, ``Z``, ``H``, ``ε``); see
        :class:`~repro.core.parameters.SparsifierParams`.
    """

    def __init__(
        self,
        num_vertices: int,
        seed: int | str,
        k: int = 2,
        params: SparsifierParams | None = None,
    ):
        self.core = _PipelineCore(num_vertices, seed, k, params)

    def sparsify_graph(self, graph: Graph) -> Graph:
        """Run the full pipeline with offline-built sub-spanners."""
        if graph.num_vertices != self.core.num_vertices:
            raise ValueError("graph size mismatch")
        core = self.core
        for j, t in core.oracle_slots():
            filtered = _filtered_graph(graph, core.estimator.edge_filter(j, t))
            output = offline_two_phase_spanner(
                filtered, core.k, derive_seed(core.seed, "oracle-spanner", j, t)
            )
            core.estimator.attach_oracle(j, t, output.spanner)
        for s, j in core.sample_slots():
            filtered = _filtered_graph(graph, self.core.samplers[s].edge_filter(j))
            output = offline_two_phase_spanner(
                filtered, core.k, derive_seed(core.seed, "sample-spanner", s, j)
            )
            core.samplers[s].attach_level_output(j, output.spanner.edge_set())
        return core.assemble()


class StreamingSparsifier(StreamingAlgorithm):
    """Full streaming driver: every sub-spanner is sketch-based, and the
    whole pipeline performs exactly two passes over the stream."""

    def __init__(
        self,
        num_vertices: int | VertexSpace,
        seed: int | str,
        k: int = 2,
        params: SparsifierParams | None = None,
        spanner_params: SpannerParams | None = None,
    ):
        self.core = _PipelineCore(num_vertices, seed, k, params)
        sub_params = spanner_params or _SUB_SPANNER_PARAMS
        core = self.core
        self._oracle_builders = {
            (j, t): TwoPassSpannerBuilder(
                core.space,
                k,
                derive_seed(core.seed, "oracle-builder", j, t),
                params=sub_params,
                edge_filter=core.estimator.edge_filter(j, t),
            )
            for j, t in core.oracle_slots()
        }
        self._sample_builders = {
            (s, j): TwoPassSpannerBuilder(
                core.space,
                k,
                derive_seed(core.seed, "sample-builder", s, j),
                params=sub_params,
                augmented=True,
                edge_filter=core.samplers[s].edge_filter(j),
            )
            for s, j in core.sample_slots()
        }
        # Every slot filter's membership hash, stacked in routing order
        # (the estimator's sequences, then the sampler levels): a chunk
        # evaluates them all in one multi-polynomial pass.
        self._membership = np.array(
            core.estimator.membership_coefficients()
            + [core.samplers[s].membership_coefficients(j) for s, j in self._sample_builders],
            dtype=np.uint64,
        )

    @property
    def passes_required(self) -> int:
        return 2

    def begin_pass(self, pass_index: int) -> None:
        for builder in self._all_builders():
            builder.begin_pass(pass_index)

    def process(self, update: EdgeUpdate, pass_index: int) -> None:
        for builder in self._all_builders():
            builder.process(update, pass_index)

    def process_batch(self, updates: Sequence[EdgeUpdate], pass_index: int) -> None:
        """Vectorized slot routing: one membership pass per chunk.

        The chunk is unpacked and collapsed to its distinct pairs once;
        every oracle slot's nested-sample filter and every sampler
        level's Bernoulli filter is then a vectorized comparison over
        those distinct pairs (every hash family evaluated in one stacked
        :func:`~repro.sketch.kernels.polyhash61_multi` pass instead of
        one Python predicate call per token per slot), and each
        sub-spanner receives its surviving pairs through
        :meth:`~repro.core.two_pass_spanner.TwoPassSpannerBuilder.process_pairs`.
        State is bit-identical to the per-token filter path.
        """
        if not updates:
            return
        if len(updates) <= _SMALL_BATCH:
            for builder in self._all_builders():
                builder.process_batch(updates, pass_index)
            return
        core = self.core
        us, vs, signs = updates_to_arrays(updates)
        # Pass 0 keeps zero-net pairs: they drive the sub-spanners'
        # touched-vertex and cluster-row bookkeeping as the token path would.
        lows, highs, pairs, net = aggregate_updates(
            us, vs, signs, core.num_vertices, keep_zero=(pass_index == 0)
        )
        if pairs.size == 0:
            return

        def route(builder, mask):
            if mask is None:  # every pair survives — skip the copies
                builder.process_pairs(lows, highs, pairs, net, pass_index)
            elif mask.any():
                builder.process_pairs(
                    lows[mask], highs[mask], pairs[mask], net[mask], pass_index
                )

        values = polyhash61_multi(self._membership, pairs)
        for j in range(core.estimator.reps):
            depth = core.estimator.member_levels_of_values(j, values[j])
            for t in range(1, core.estimator.depths + 1):
                mask = None if t <= 1 else depth >= np.int64(t - 1)
                route(self._oracle_builders[(j, t)], mask)
        for row, ((s, j), builder) in enumerate(
            self._sample_builders.items(), start=core.estimator.reps
        ):
            route(builder, core.samplers[s].member_of_values(j, values[row]))

    def end_pass(self, pass_index: int) -> None:
        for builder in self._all_builders():
            builder.end_pass(pass_index)

    def finalize(self) -> Graph:
        """Decode every sub-spanner's pass-2 tables together
        (:meth:`~repro.core.two_pass_spanner.TwoPassSpannerBuilder.finalize_many`)
        and assemble the sparsifier from their outputs."""
        return self._assemble(TwoPassSpannerBuilder.finalize_many(list(self._all_builders())))

    def _assemble(self, outputs) -> Graph:
        """Attach the sub-spanners' outputs (in :meth:`_all_builders`
        order) to the core and assemble."""
        core = self.core
        outputs = iter(outputs)
        for j, t in self._oracle_builders:
            core.estimator.attach_oracle(j, t, next(outputs).spanner)
        for s, j in self._sample_builders:
            output = next(outputs)
            recovered = output.spanner.edge_set() | output.observed_edges
            core.samplers[s].attach_level_output(j, recovered)
        return core.assemble()

    def _all_builders(self):
        yield from self._oracle_builders.values()
        yield from self._sample_builders.values()

    def clone(self) -> "StreamingSparsifier":
        """Cheap structural copy: every sub-spanner is cloned and the
        core is cloned with it.

        The cloned sub-builders keep their original edge-filter closures
        — those are pure functions of immutable hash families, so a
        filter bound to the original core accepts exactly the pairs the
        clone's core would.  The clone's ``finalize`` attaches oracles
        and sampler outputs to the *clone's* core only.
        """
        clone = object.__new__(StreamingSparsifier)
        clone.core = self.core.clone()
        clone._oracle_builders = {
            key: builder.clone() for key, builder in self._oracle_builders.items()
        }
        clone._sample_builders = {
            key: builder.clone() for key, builder in self._sample_builders.items()
        }
        clone._membership = self._membership  # read-only
        return clone

    # -- sharded execution protocol (see repro.stream.distributed) -----
    #
    # The pipeline is a fixed, seed-determined array of sub-spanners
    # (oracle slots, then sampler slots — dict insertion order), so the
    # sharded protocol is the spanner protocol applied slot-wise.
    # Pass-0 blocks are variable-length (each shard allocates different
    # cluster-sketch keys), so every block travels length-prefixed.

    def shard_state_ints(self, pass_index: int) -> np.ndarray | list[int]:
        """Length-prefixed concatenation of every sub-spanner's state."""
        return _length_prefixed(
            builder.shard_state_ints(pass_index) for builder in self._all_builders()
        )

    def load_shard_state_ints(self, pass_index: int, values: list[int]) -> None:
        """Inverse of :meth:`shard_state_ints`, slot by slot."""
        cursor = 0
        for builder in self._all_builders():
            length = int(values[cursor])
            cursor += 1
            builder.load_shard_state_ints(
                pass_index, values[cursor : cursor + length]
            )
            cursor += length
        if cursor != len(values):
            raise ValueError(f"expected {cursor} state ints, got {len(values)}")

    def merge_shard(self, other: "StreamingSparsifier", pass_index: int) -> None:
        """Sum a shard pipeline's state into ours, slot by slot."""
        for mine, theirs in zip(self._all_builders(), other._all_builders()):
            mine.merge_shard(theirs, pass_index)

    def broadcast_state(self, pass_index: int) -> object:
        """Per-slot list of the sub-spanners' forest broadcasts."""
        if pass_index != 1:
            return None
        return [builder.broadcast_state(pass_index) for builder in self._all_builders()]

    def adopt_broadcast(self, state: object, pass_index: int) -> None:
        """Install the coordinator's per-slot forest broadcasts."""
        for builder, piece in zip(self._all_builders(), state):
            builder.adopt_broadcast(piece, pass_index)

    def space_report(self) -> SpaceReport:
        """Aggregated words over every sub-spanner's sketches."""
        report = SpaceReport()
        for builder in self._oracle_builders.values():
            report.add("estimate oracles", builder.space_words())
        for builder in self._sample_builders.values():
            report.add("sampler spanners", builder.space_words())
        return report

    def space_words(self) -> int:
        return self.space_report().total_words()


class StreamingWeightedSparsifier(StreamingAlgorithm):
    """Two-pass streaming sparsifier for *weighted* dynamic streams.

    Section 6's reduction: round weights to powers of ``class_ratio``,
    sparsify each class as an unweighted stream, rescale and union —
    costing the ``log(w_max/w_min)`` factor of Corollary 2's statement.
    Weight bounds are assumed known a priori (footnote 1 of the paper).
    """

    def __init__(
        self,
        num_vertices: int | VertexSpace,
        seed: int | str,
        w_min: float,
        w_max: float,
        k: int = 2,
        params: SparsifierParams | None = None,
        class_ratio: float = 2.0,
    ):
        if not 0 < w_min <= w_max:
            raise ValueError(f"need 0 < w_min <= w_max, got ({w_min}, {w_max})")
        if class_ratio <= 1.0:
            raise ValueError(f"class_ratio must exceed 1, got {class_ratio}")
        self.space = as_vertex_space(num_vertices)
        num_vertices = self.space.universe_size
        self.num_vertices = num_vertices
        self.w_min = w_min
        self.w_max = w_max
        self.class_ratio = class_ratio
        self.num_classes = (
            1 + math.floor(math.log(w_max / w_min) / math.log(class_ratio))
        )
        self._pipelines = [
            StreamingSparsifier(
                self.space, derive_seed(seed, "weighted-class", t), k=k, params=params
            )
            for t in range(self.num_classes)
        ]
        # Streams carry few distinct weights; memoizing the float-log
        # class computation turns the per-token split into a dict hit.
        self._class_memo: dict[float, int] = {}

    def weight_class(self, weight: float) -> int:
        """Index of the weight class containing ``weight``."""
        memoized = self._class_memo.get(weight)
        if memoized is not None:
            return memoized
        if not self.w_min <= weight <= self.w_max:
            raise ValueError(
                f"weight {weight} outside the declared range [{self.w_min}, {self.w_max}]"
            )
        t = math.floor(math.log(weight / self.w_min) / math.log(self.class_ratio))
        t = min(t, self.num_classes - 1)
        self._class_memo[weight] = t
        return t

    @property
    def passes_required(self) -> int:
        return 2

    def begin_pass(self, pass_index: int) -> None:
        for pipeline in self._pipelines:
            pipeline.begin_pass(pass_index)

    def process(self, update: EdgeUpdate, pass_index: int) -> None:
        self._pipelines[self.weight_class(update.weight)].process(update, pass_index)

    def process_batch(self, updates: Sequence[EdgeUpdate], pass_index: int) -> None:
        by_class: dict[int, list[EdgeUpdate]] = {}
        for update in updates:
            by_class.setdefault(self.weight_class(update.weight), []).append(update)
        for weight_class, chunk in by_class.items():
            self._pipelines[weight_class].process_batch(chunk, pass_index)

    def end_pass(self, pass_index: int) -> None:
        for pipeline in self._pipelines:
            pipeline.end_pass(pass_index)

    def finalize(self) -> Graph:
        """Decode the sub-spanners of every weight class together, then
        assemble each class and union the rescaled classes."""
        builders = [list(pipeline._all_builders()) for pipeline in self._pipelines]
        outputs = TwoPassSpannerBuilder.finalize_many(
            [builder for group in builders for builder in group]
        )
        result = Graph(self.num_vertices)
        start = 0
        for t, (pipeline, group) in enumerate(zip(self._pipelines, builders)):
            class_sparsifier = pipeline._assemble(outputs[start : start + len(group)])
            start += len(group)
            representative = self.w_min * self.class_ratio ** t * math.sqrt(self.class_ratio)
            representative = min(representative, self.w_max)
            for u, v, w in class_sparsifier.edges():
                weight = w * representative
                if result.has_edge(u, v):
                    weight += result.weight(u, v)
                result.add_edge(u, v, weight)
        return result

    def clone(self) -> "StreamingWeightedSparsifier":
        """Cheap structural copy: every weight-class pipeline is cloned."""
        clone = object.__new__(StreamingWeightedSparsifier)
        clone.space = self.space
        clone.num_vertices = self.num_vertices
        clone.w_min = self.w_min
        clone.w_max = self.w_max
        clone.class_ratio = self.class_ratio
        clone.num_classes = self.num_classes
        clone._pipelines = [pipeline.clone() for pipeline in self._pipelines]
        clone._class_memo = self._class_memo  # pure cache of a pure function
        return clone

    # -- sharded execution protocol (see repro.stream.distributed) -----
    #
    # The weight classes are a fixed, seed-determined array of
    # sub-pipelines, so the protocol is the pipeline protocol applied
    # class-wise, each block length-prefixed (mirroring
    # :class:`StreamingSparsifier`).

    def shard_state_ints(self, pass_index: int) -> np.ndarray | list[int]:
        """Length-prefixed concatenation of every class pipeline's state."""
        return _length_prefixed(
            pipeline.shard_state_ints(pass_index) for pipeline in self._pipelines
        )

    def load_shard_state_ints(self, pass_index: int, values: list[int]) -> None:
        """Inverse of :meth:`shard_state_ints`, class by class."""
        cursor = 0
        for pipeline in self._pipelines:
            length = int(values[cursor])
            cursor += 1
            pipeline.load_shard_state_ints(pass_index, values[cursor : cursor + length])
            cursor += length
        if cursor != len(values):
            raise ValueError(f"expected {cursor} state ints, got {len(values)}")

    def merge_shard(self, other: "StreamingWeightedSparsifier", pass_index: int) -> None:
        """Sum a shard's state into ours, class by class."""
        for mine, theirs in zip(self._pipelines, other._pipelines):
            mine.merge_shard(theirs, pass_index)

    def broadcast_state(self, pass_index: int) -> object:
        """Per-class list of the pipelines' forest broadcasts."""
        if pass_index != 1:
            return None
        return [pipeline.broadcast_state(pass_index) for pipeline in self._pipelines]

    def adopt_broadcast(self, state: object, pass_index: int) -> None:
        """Install the coordinator's per-class forest broadcasts."""
        for pipeline, piece in zip(self._pipelines, state):
            pipeline.adopt_broadcast(piece, pass_index)

    def space_words(self) -> int:
        return sum(pipeline.space_words() for pipeline in self._pipelines)


def sparsify_stream(
    stream: DynamicStream,
    seed: int | str,
    k: int = 2,
    params: SparsifierParams | None = None,
    batch_size: int | None = None,
) -> Graph:
    """Two-pass streaming sparsification of ``stream`` (Corollary 2).

    ``batch_size`` chunks each pass through the batched sketch engine
    (identical output; see ``docs/performance.md``).
    """
    algorithm = StreamingSparsifier(stream.num_vertices, seed, k=k, params=params)
    return run_passes(stream, algorithm, batch_size=batch_size)


def sparsify_weighted_graph(
    graph: Graph,
    seed: int | str,
    k: int = 2,
    params: SparsifierParams | None = None,
    class_ratio: float = 2.0,
) -> Graph:
    """Weighted sparsification by weight classes (Section 6's rounding).

    Each class ``[w_0 r^t, w_0 r^{t+1})`` is sparsified as an unweighted
    graph and rescaled by its class weight; the union is the sparsifier.
    Costs a factor ``log_r(w_max/w_min)`` in space/time.
    """
    if class_ratio <= 1.0:
        raise ValueError(f"class_ratio must exceed 1, got {class_ratio}")
    weights = [w for _, _, w in graph.edges()]
    if not weights:
        return Graph(graph.num_vertices)
    w_min = min(weights)
    result = Graph(graph.num_vertices)
    num_classes = 1 + math.floor(math.log(max(weights) / w_min) / math.log(class_ratio))
    for t in range(num_classes):
        low = w_min * class_ratio ** t
        high = w_min * class_ratio ** (t + 1)
        class_graph = Graph(graph.num_vertices)
        for u, v, w in graph.edges():
            if low <= w < high or (t == num_classes - 1 and w == high):
                class_graph.add_edge(u, v)
        if class_graph.num_edges() == 0:
            continue
        pipeline = SpectralSparsifier(
            graph.num_vertices, derive_seed(seed, "weight-class", t), k=k, params=params
        )
        class_sparsifier = pipeline.sparsify_graph(class_graph)
        representative = low * math.sqrt(class_ratio)
        for u, v, w in class_sparsifier.edges():
            weight = w * representative
            if result.has_edge(u, v):
                weight += result.weight(u, v)
            result.add_edge(u, v, weight)
    return result


def _length_prefixed(blocks) -> np.ndarray | list[int]:
    """One wire of ``[len(block), *block]`` per block (see
    :func:`~repro.sketch.serialize.concat_ints`)."""
    parts: list = []
    for block in blocks:
        parts += [[len(block)], block]
    return concat_ints(parts)


def _filtered_graph(graph: Graph, predicate) -> Graph:
    """Subgraph of ``graph`` on the pairs accepted by ``predicate``."""
    filtered = Graph(graph.num_vertices)
    for u, v, w in graph.edges():
        if predicate(u, v):
            filtered.add_edge(u, v, w)
    return filtered
