"""Tests for the sparsification pipeline (Algorithms 5-6, Corollary 2)."""

import pytest

from repro.core.parameters import SparsifierParams
from repro.core.sample_spanner import SpannerSampleLevels
from repro.core.sparsify import (
    SpectralSparsifier,
    StreamingSparsifier,
    StreamingWeightedSparsifier,
    sparsify_stream,
    sparsify_weighted_graph,
)
from repro.core.two_pass_spanner import TwoPassSpannerBuilder
from repro.graph.cuts import max_cut_discrepancy
from repro.graph.graph import Graph
from repro.graph.laplacian import spectral_approximation
from repro.graph.random_graphs import (
    barbell_graph,
    complete_graph,
    connected_gnp,
    with_random_weights,
)
from repro.stream.generators import stream_from_graph
from repro.stream.pipeline import run_passes


class TestSampleLevels:
    def test_member_rate(self):
        levels = SpannerSampleLevels(40, levels=8, seed=1, invocation=0)
        pairs = [(u, v) for u in range(40) for v in range(u + 1, 40)]
        at_1 = sum(1 for u, v in pairs if levels.member(1, u, v))
        at_3 = sum(1 for u, v in pairs if levels.member(3, u, v))
        assert 0.4 * len(pairs) < at_1 < 0.6 * len(pairs)
        assert 0.08 * len(pairs) < at_3 < 0.18 * len(pairs)

    def test_invocations_independent(self):
        first = SpannerSampleLevels(40, levels=8, seed=1, invocation=0)
        second = SpannerSampleLevels(40, levels=8, seed=1, invocation=1)
        pairs = [(u, v) for u in range(40) for v in range(u + 1, 40)]
        differing = sum(
            1 for u, v in pairs if first.member(1, u, v) != second.member(1, u, v)
        )
        assert differing > 0.3 * len(pairs)

    def test_weighted_output_keeps_matching_levels_only(self):
        levels = SpannerSampleLevels(10, levels=4, seed=2, invocation=0)
        levels.attach_level_output(1, {(0, 1), (2, 3)})
        levels.attach_level_output(2, {(0, 1), (4, 5)})
        level_of = {(0, 1): 2, (2, 3): 1, (4, 5): 3}.get
        output = levels.weighted_output(level_of)
        assert output == {(0, 1): 4.0, (2, 3): 2.0}

    def test_recovered_union(self):
        levels = SpannerSampleLevels(10, levels=4, seed=3, invocation=0)
        levels.attach_level_output(1, {(0, 1)})
        levels.attach_level_output(2, {(1, 2)})
        assert levels.recovered_edges() == {(0, 1), (1, 2)}

    def test_level_bounds_validated(self):
        levels = SpannerSampleLevels(10, levels=4, seed=4, invocation=0)
        with pytest.raises(IndexError):
            levels.member(0, 0, 1)
        with pytest.raises(IndexError):
            levels.member(5, 0, 1)


class TestOfflineSparsifier:
    def test_quality_on_random_graph(self):
        graph = connected_gnp(36, 0.3, seed=1)
        params = SparsifierParams(sampling_rounds_factor=0.15)
        pipeline = SpectralSparsifier(36, seed=2, k=2, params=params)
        sparsifier = pipeline.sparsify_graph(graph)
        bounds = spectral_approximation(graph, sparsifier)
        assert bounds.epsilon() < 0.8
        assert max_cut_discrepancy(graph, sparsifier, trials=60, seed=3) < 0.5

    def test_quality_improves_with_rounds(self):
        graph = connected_gnp(36, 0.3, seed=4)
        epsilons = []
        for factor in (0.04, 0.2):
            params = SparsifierParams(sampling_rounds_factor=factor)
            pipeline = SpectralSparsifier(36, seed=5, k=2, params=params)
            bounds = spectral_approximation(graph, pipeline.sparsify_graph(graph))
            epsilons.append(bounds.epsilon())
        assert epsilons[1] < epsilons[0] + 0.05

    def test_dense_graph_compressed(self):
        graph = complete_graph(40)
        params = SparsifierParams(sampling_rounds_factor=0.08)
        pipeline = SpectralSparsifier(40, seed=6, k=2, params=params)
        sparsifier = pipeline.sparsify_graph(graph)
        assert sparsifier.num_edges() < 0.8 * graph.num_edges()
        bounds = spectral_approximation(graph, sparsifier)
        assert bounds.epsilon() < 1.0

    def test_bridge_preserved(self):
        graph = barbell_graph(6)
        params = SparsifierParams(sampling_rounds_factor=0.3)
        pipeline = SpectralSparsifier(graph.num_vertices, seed=7, k=2, params=params)
        sparsifier = pipeline.sparsify_graph(graph)
        assert sparsifier.has_edge(0, 6)

    def test_output_edges_are_input_edges(self):
        graph = connected_gnp(30, 0.3, seed=8)
        params = SparsifierParams(sampling_rounds_factor=0.05)
        pipeline = SpectralSparsifier(30, seed=9, k=2, params=params)
        sparsifier = pipeline.sparsify_graph(graph)
        for u, v, _ in sparsifier.edges():
            assert graph.has_edge(u, v)

    def test_graph_size_mismatch_rejected(self):
        pipeline = SpectralSparsifier(10, seed=1, k=2)
        with pytest.raises(ValueError):
            pipeline.sparsify_graph(Graph(11))

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            SpectralSparsifier(10, seed=1, k=0)


class TestStreamingSparsifier:
    def test_two_passes_and_loose_quality(self):
        graph = connected_gnp(20, 0.35, seed=10)
        stream = stream_from_graph(graph, seed=11, churn=0.4)
        params = SparsifierParams(sampling_rounds_factor=0.03)
        algorithm = StreamingSparsifier(20, seed=12, k=2, params=params)
        assert algorithm.passes_required == 2
        sparsifier = run_passes(stream, algorithm)
        assert sparsifier.num_edges() > 0
        for u, v, _ in sparsifier.edges():
            assert graph.has_edge(u, v)
        bounds = spectral_approximation(graph, sparsifier)
        assert bounds.epsilon() < 2.5  # smoke-scale Z: loose bound
        assert max_cut_discrepancy(graph, sparsifier, trials=40, seed=13) < 1.2
        assert algorithm.space_words() > 0

    def test_sparsify_stream_helper(self):
        graph = connected_gnp(16, 0.4, seed=14)
        stream = stream_from_graph(graph, seed=15, churn=0.3)
        params = SparsifierParams(sampling_rounds_factor=0.02)
        sparsifier = sparsify_stream(stream, seed=16, k=2, params=params)
        for u, v, _ in sparsifier.edges():
            assert graph.has_edge(u, v)


class TestStreamingWeightedSparsifier:
    def test_weighted_streaming_two_passes(self):
        graph = with_random_weights(
            connected_gnp(14, 0.45, seed=30), seed=30, w_min=1.0, w_max=4.0
        )
        stream = stream_from_graph(graph, seed=31, churn=0.3)
        params = SparsifierParams(sampling_rounds_factor=0.02)
        algorithm = StreamingWeightedSparsifier(
            14, seed=32, w_min=1.0, w_max=4.0, k=2, params=params
        )
        assert algorithm.passes_required == 2
        assert algorithm.num_classes == 3
        sparsifier = run_passes(stream, algorithm)
        assert sparsifier.num_edges() > 0
        for u, v, _ in sparsifier.edges():
            assert graph.has_edge(u, v)
        # Loose smoke-scale quality: the spectral ratio stays bounded.
        bounds = spectral_approximation(graph, sparsifier)
        assert bounds.epsilon() < 3.0

    def test_batched_finalize_equals_each_sub_spanner_alone(self):
        """finalize() decodes every class's sub-spanner tables together;
        each sub-spanner's output is what its own finalize() gives."""
        graph = with_random_weights(
            connected_gnp(14, 0.45, seed=33), seed=33, w_min=1.0, w_max=4.0
        )
        stream = stream_from_graph(graph, seed=34, churn=0.3)
        params = SparsifierParams(sampling_rounds_factor=0.02)
        algorithm = StreamingWeightedSparsifier(
            14, seed=35, w_min=1.0, w_max=4.0, k=2, params=params
        )
        for pass_index in range(2):
            for chunk in stream.iter_batches(64):
                algorithm.process_batch(chunk, pass_index)
            algorithm.end_pass(pass_index)

        def sub_spanners(sparsifier):
            return [b for pipeline in sparsifier._pipelines for b in pipeline._all_builders()]

        together = TwoPassSpannerBuilder.finalize_many(sub_spanners(algorithm.clone()))
        alone = [builder.finalize() for builder in sub_spanners(algorithm.clone())]
        assert len(together) == len(alone) > algorithm.num_classes
        for mine, theirs in zip(together, alone):
            assert mine.spanner.edge_set() == theirs.spanner.edge_set()
            assert mine.observed_edges == theirs.observed_edges
            assert mine.diagnostics == theirs.diagnostics
        assert sorted(algorithm.clone().finalize().edges()) == sorted(algorithm.finalize().edges())

    def test_class_routing(self):
        algorithm = StreamingWeightedSparsifier(8, seed=1, w_min=1.0, w_max=8.0)
        assert algorithm.weight_class(1.0) == 0
        assert algorithm.weight_class(3.0) == 1
        assert algorithm.weight_class(8.0) == 3
        with pytest.raises(ValueError):
            algorithm.weight_class(16.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingWeightedSparsifier(8, seed=1, w_min=0.0, w_max=1.0)
        with pytest.raises(ValueError):
            StreamingWeightedSparsifier(8, seed=1, w_min=1.0, w_max=2.0, class_ratio=1.0)


class TestWeightedSparsifier:
    def test_weighted_quality(self):
        graph = with_random_weights(connected_gnp(24, 0.35, seed=17), seed=17, w_min=1.0, w_max=4.0)
        params = SparsifierParams(sampling_rounds_factor=0.1)
        sparsifier = sparsify_weighted_graph(graph, seed=18, k=2, params=params)
        bounds = spectral_approximation(graph, sparsifier)
        assert bounds.epsilon() < 1.2

    def test_empty_graph(self):
        assert sparsify_weighted_graph(Graph(5), seed=1).num_edges() == 0

    def test_invalid_class_ratio(self):
        with pytest.raises(ValueError):
            sparsify_weighted_graph(Graph(5), seed=1, class_ratio=1.0)
