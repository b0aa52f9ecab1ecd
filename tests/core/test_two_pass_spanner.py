"""Tests for the streaming two-pass 2^k-spanner (Theorem 1)."""

import math

import pytest

from repro.core.offline_spanner import offline_two_phase_spanner
from repro.core.parameters import SpannerParams
from repro.core.two_pass_spanner import TwoPassSpannerBuilder
from repro.graph.distances import evaluate_multiplicative_stretch
from repro.graph.graph import Graph, edge_index
from repro.graph.random_graphs import (
    complete_graph,
    connected_gnp,
    grid_graph,
    power_law_graph,
)
from repro.stream.generators import adversarial_churn_stream, stream_from_graph


def build(graph, k, seed, churn=0.3, **kwargs):
    stream = stream_from_graph(graph, seed=seed, churn=churn)
    builder = TwoPassSpannerBuilder(graph.num_vertices, k, seed=seed, **kwargs)
    output = builder.run(stream)
    return builder, output


class TestStretch:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_stretch_at_most_2_to_k(self, k, seed):
        graph = connected_gnp(48, 0.18, seed=seed)
        _, output = build(graph, k, seed=50 + seed)
        report = evaluate_multiplicative_stretch(graph, output.spanner)
        assert report.within(2 ** k), f"stretch {report.max_stretch} > {2 ** k}"

    def test_stretch_k3(self):
        graph = connected_gnp(64, 0.15, seed=3)
        _, output = build(graph, 3, seed=60)
        report = evaluate_multiplicative_stretch(graph, output.spanner)
        assert report.within(8)

    def test_stretch_on_grid(self):
        graph = grid_graph(6, 8)
        _, output = build(graph, 2, seed=61)
        report = evaluate_multiplicative_stretch(graph, output.spanner)
        assert report.within(4)

    def test_stretch_on_power_law(self):
        graph = power_law_graph(60, exponent=2.3, seed=4)
        _, output = build(graph, 2, seed=62)
        report = evaluate_multiplicative_stretch(graph, output.spanner)
        assert report.within(4)

    def test_stretch_under_adversarial_churn(self):
        graph = connected_gnp(40, 0.15, seed=5)
        stream = adversarial_churn_stream(graph, seed=63, rounds=2)
        builder = TwoPassSpannerBuilder(40, 2, seed=64)
        output = builder.run(stream)
        report = evaluate_multiplicative_stretch(graph, output.spanner)
        assert report.within(4)


class TestStructure:
    def test_two_passes_declared(self):
        assert TwoPassSpannerBuilder(8, 2, seed=1).passes_required == 2

    def test_spanner_is_subgraph_despite_deletions(self):
        graph = connected_gnp(48, 0.15, seed=6)
        _, output = build(graph, 2, seed=65, churn=1.0)
        for u, v, _ in output.spanner.edges():
            assert graph.has_edge(u, v), f"spanner edge {(u, v)} not in final graph"

    def test_disconnected_components_preserved(self):
        graph = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        _, output = build(graph, 2, seed=66, churn=0.0)
        for u, v, _ in output.spanner.edges():
            assert graph.has_edge(u, v)
        components = sorted(map(sorted, output.spanner.connected_components()))
        assert components == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_empty_graph(self):
        _, output = build(Graph(6), 2, seed=67, churn=0.0)
        assert output.spanner.num_edges() == 0

    def test_single_edge(self):
        graph = Graph.from_edges(4, [(1, 3)])
        _, output = build(graph, 2, seed=68, churn=0.0)
        assert output.spanner.edge_set() == {(1, 3)}

    def test_forest_valid(self):
        graph = connected_gnp(40, 0.2, seed=7)
        _, output = build(graph, 3, seed=69)
        output.forest.validate()

    def test_coverage_failures_rare(self):
        graph = connected_gnp(48, 0.2, seed=8)
        builder, output = build(graph, 2, seed=70)
        assert output.diagnostics["pass2_uncovered_keys"] <= 2
        assert output.diagnostics["pass2_table_overflows"] == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TwoPassSpannerBuilder(0, 2, seed=1)
        with pytest.raises(ValueError):
            TwoPassSpannerBuilder(8, 0, seed=1)


class TestMerge:
    @pytest.mark.parametrize(
        "other_k, other_params",
        [(2, None), (3, SpannerParams(cluster_budget=4))],
        ids=["k", "params"],
    )
    def test_mismatched_builder_is_refused_before_any_change(self, other_k, other_params):
        """Same seed, different levels or sketch shapes: summing would mix
        sketches drawn under different randomness, so both merges raise
        and the target's pass-0 state is untouched."""
        stream = stream_from_graph(connected_gnp(16, 0.3, seed=4), seed=4, churn=0.2)
        target = TwoPassSpannerBuilder(16, 3, "merge")
        other = TwoPassSpannerBuilder(16, other_k, "merge", params=other_params)
        for update in stream:
            # ``other`` also touches vertices 8..15: a merge that changed
            # anything before refusing would show in the target's wire.
            if max(update.u, update.v) < 8:
                target.process(update, 0)
            other.process(update, 0)
        before = target.shard_state_ints(0)
        with pytest.raises(ValueError, match="num_vertices, k, params"):
            target.merge_first_pass(other)
        with pytest.raises(ValueError, match="num_vertices, k, params"):
            target.merge_second_pass(other)
        assert target.shard_state_ints(0) == before

    def test_out_of_range_cluster_key_in_wire_raises(self):
        """A pass-0 wire key (r, j) past the edge levels would alias the
        next target level's seed group; loading it must fail instead."""
        builder = TwoPassSpannerBuilder(16, 3, "wire-keys")
        builder.process_batch(list(stream_from_graph(complete_graph(16), seed=2)), 0)
        wire = builder.shard_state_ints(0)
        key_at = 2 + wire[0]  # after the touched list and the key count
        assert wire[key_at + 1] == 1  # a level-1 key: r = 1
        wire[key_at + 2] = builder._edge_levels + 1
        with pytest.raises(ValueError, match="out of range"):
            TwoPassSpannerBuilder(16, 3, "wire-keys").load_shard_state_ints(0, wire)


class TestSizeAndSpace:
    def test_size_bound(self):
        n, k = 64, 2
        graph = complete_graph(n)
        _, output = build(graph, k, seed=71, churn=0.0)
        bound = 4 * k * n ** (1 + 1 / k) * math.log2(n)
        assert output.spanner.num_edges() < bound

    def test_dense_graph_compressed(self):
        graph = complete_graph(64)
        _, output = build(graph, 2, seed=72, churn=0.0)
        assert output.spanner.num_edges() < graph.num_edges() / 2

    def test_space_report_components(self):
        graph = connected_gnp(32, 0.2, seed=9)
        builder, _ = build(graph, 2, seed=73)
        report = builder.space_report()
        assert "pass1 cluster sketches" in report.components
        assert "pass2 hash tables" in report.components
        assert report.total_words() > 0


class TestAugmented:
    def test_spanner_edges_subset_of_observed(self):
        graph = connected_gnp(40, 0.2, seed=10)
        _, output = build(graph, 2, seed=74, augmented=True)
        observed = output.observed_edges
        for u, v, _ in output.spanner.edges():
            assert (u, v) in observed

    def test_observed_edges_are_real(self):
        graph = connected_gnp(40, 0.2, seed=11)
        _, output = build(graph, 2, seed=75, augmented=True, churn=0.5)
        for u, v in output.observed_edges:
            assert graph.has_edge(u, v)

    def test_not_augmented_has_no_observed(self):
        graph = connected_gnp(30, 0.2, seed=12)
        _, output = build(graph, 2, seed=76, augmented=False)
        assert output.observed_edges == set()


class TestEdgeFilter:
    def test_filter_restricts_to_subgraph(self):
        graph = connected_gnp(36, 0.25, seed=13)
        keep = lambda u, v: (u + v) % 2 == 0
        stream = stream_from_graph(graph, seed=77)
        builder = TwoPassSpannerBuilder(36, 2, seed=78, edge_filter=keep)
        output = builder.run(stream)
        filtered = Graph(36)
        for u, v, w in graph.edges():
            if keep(u, v):
                filtered.add_edge(u, v, w)
        for u, v, _ in output.spanner.edges():
            assert filtered.has_edge(u, v)
        report = evaluate_multiplicative_stretch(filtered, output.spanner)
        assert report.within(4)


class TestDifferentialVsOffline:
    """The streaming and offline constructions share cluster semantics:
    both must satisfy the same invariants on the same inputs."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_both_meet_stretch_and_subgraph(self, seed):
        graph = connected_gnp(40, 0.2, seed=seed)
        offline = offline_two_phase_spanner(graph, 2, seed=200 + seed)
        _, streaming = build(graph, 2, seed=200 + seed)
        for output in (offline, streaming):
            report = evaluate_multiplicative_stretch(graph, output.spanner)
            assert report.within(4)
            for u, v, _ in output.spanner.edges():
                assert graph.has_edge(u, v)

    def test_sizes_comparable(self):
        graph = complete_graph(48)
        offline = offline_two_phase_spanner(graph, 2, seed=300)
        _, streaming = build(graph, 2, seed=300, churn=0.0)
        assert streaming.spanner.num_edges() <= 4 * offline.spanner.num_edges() + 50
