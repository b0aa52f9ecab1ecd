"""Tests for the streaming two-pass 2^k-spanner (Theorem 1)."""

import math

import pytest

from repro.core.offline_spanner import offline_two_phase_spanner
from repro.core.parameters import SpannerParams
from repro.core.two_pass_spanner import TwoPassSpannerBuilder
from repro.graph.distances import evaluate_multiplicative_stretch
from repro.graph.graph import Graph, edge_index
from repro.sketch.hashing import MERSENNE_61
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


class TestPassZeroWire:
    """The pass-0 wire: touched ids, then the cluster stack's nonzero
    rows.  Malformed wires are refused before any state changes."""

    @staticmethod
    def _source_and_target():
        stream = list(stream_from_graph(connected_gnp(16, 0.3, seed=6), seed=6, churn=0.3))
        source = TwoPassSpannerBuilder(16, 3, "wire-zero")
        source.process_batch(stream, 0)
        target = TwoPassSpannerBuilder(16, 3, "wire-zero")
        target.process_batch(stream[: len(stream) // 3], 0)
        return stream, source, target

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda wire: wire.__setitem__(wire[0], 10**6), "touched id"),  # the last one
            (lambda wire: wire.__setitem__(1, -1), "touched id"),
            (lambda wire: wire.__setitem__(0, len(wire)), "inside its touched list"),
            (lambda wire: wire.__setitem__(1 + wire[0], wire[1 + wire[0]] + 1), "inside a cluster"),
        ],
        ids=["touched-id-past-universe", "negative-touched-id", "touched-count-overruns",
             "row-count-overruns"],
    )
    def test_malformed_wire_is_refused_before_any_change(self, corrupt, match):
        """Each is refused with ``ValueError`` at load, not later (an
        out-of-universe touched id once loaded and failed only at the
        forest build; an overrunning count raised ``IndexError``)."""
        _, source, target = self._source_and_target()
        wire = source.shard_state_ints(0)
        corrupt(wire)
        before = target.shard_state_ints(0)
        with pytest.raises(ValueError, match=match):
            target.load_shard_state_ints(0, wire)
        assert target.shard_state_ints(0) == before

    def test_rows_are_the_nonzero_rows(self):
        _, source, _ = self._source_and_target()
        wire = source.shard_state_ints(0)
        width = 3 + source._cluster_store.row_state_len()
        rows = wire[2 + wire[0] :]
        assert wire[1 + wire[0]] * width == len(rows) > 0
        assert all(any(rows[at + 3 : at + width]) for at in range(0, len(rows), width))

    def test_a_wire_carrying_an_all_zero_row_loads_the_same_state(self):
        """Wires once shipped all-zero rows too; such a row loads as a
        no-op, so the padded wire restores the same state, space and
        answers as the wire without it."""
        stream, source, _ = self._source_and_target()
        wire = source.shard_state_ints(0)
        touched = wire[0]
        width = 3 + source._cluster_store.row_state_len()
        rows = [wire[at : at + width] for at in range(2 + touched, len(wire), width)]
        shipped = {tuple(row[:3]) for row in rows}
        extra = next(
            (vertex, r, j)
            for vertex in range(16)
            for r in (1, 2)
            for j in range(source._edge_levels + 1)
            if (vertex, r, j) not in shipped
        )
        rows.append([*extra] + [0] * (width - 3))
        padded = wire[: 1 + touched] + [len(rows)] + [v for row in sorted(rows) for v in row]
        plain = TwoPassSpannerBuilder(16, 3, "wire-zero")
        old = TwoPassSpannerBuilder(16, 3, "wire-zero")
        plain.load_shard_state_ints(0, wire)
        old.load_shard_state_ints(0, padded)
        assert old.shard_state_ints(0) == wire
        assert old.space_report() == plain.space_report()
        for builder in (source, plain, old):
            builder.end_pass(0)
            builder.process_batch(stream, 1)
        assert old.shard_state_ints(1) == plain.shard_state_ints(1) == source.shard_state_ints(1)
        edges = source.finalize().spanner.edge_set()
        assert old.finalize().spanner.edge_set() == plain.finalize().spanner.edge_set() == edges


def _record(wire, block, index):
    """Offset of record ``index`` (negative: from the end) of a pass-1
    wire's cell ``block``: 0 the tables, 1 the cut sketches."""
    start = 0 if block == 0 else 1 + 4 * wire[0]
    return start + 1 + 4 * (index % wire[start])


def _past_group_key(wire, block, store):
    """``(record index, key)``: a key one past the last cell of a
    record's group, for a record that is its group's last on the wire
    (so the keys still increase) and a group that holds fewer cells than
    the stride (so the key is not the next group's first cell)."""
    start = 0 if block == 0 else 1 + 4 * wire[0]
    groups = [wire[_record(wire, block, i)] // store.stride for i in range(wire[start])]
    for index, group in enumerate(groups):
        cells = store.rows * max(4, math.ceil(store.bucket_factor * int(store.budgets[group])))
        if cells < store.stride and groups[index + 1 :][:1] != [group]:
            return index, group * store.stride + cells
    raise AssertionError("every shipped group spans the whole stride")


class TestPassTwoWireKeys:
    """Every load check of the pass-1 cell blocks (the tables', then the
    cut sketches') refuses its own malformed case, before any change:
    the whole wire is checked before the builder installs either block."""

    @staticmethod
    def _wire_and_target():
        # Sparse enough that level-0 roots stay terminal: their tables
        # and cut sketches hold fewer cells than the level-1 ones.
        params = SpannerParams(table_stacks=1)
        stream = list(stream_from_graph(connected_gnp(40, 0.1, seed=0), seed=0))
        source = TwoPassSpannerBuilder(40, 2, "wire-keys-2", params=params)
        source.process_batch(stream, 0)
        source.end_pass(0)
        source.process_batch(stream, 1)
        wire = source.shard_state_ints(1)
        assert wire[0] >= 2 and wire[1 + 4 * wire[0]] >= 2
        target = TwoPassSpannerBuilder(40, 2, "wire-keys-2", params=params)
        target.adopt_forest_from(source)
        target.process_batch(stream[: len(stream) // 2], 1)
        return source, wire, target

    @staticmethod
    def _refused(wire, target, match):
        before = target.shard_state_ints(1)
        with pytest.raises(ValueError, match=match):
            target.load_shard_state_ints(1, wire)
        assert target.shard_state_ints(1) == before

    @pytest.mark.parametrize("block", [0, 1], ids=["tables", "cuts"])
    @pytest.mark.parametrize(
        "case, match",
        [
            ("group", "group outside"),
            ("cell", "past its group"),
            ("repeat", "strictly increase"),
            ("negative", "group outside"),
        ],
        ids=["group-past-layout", "cell-past-its-group", "key-not-increasing", "negative-key"],
    )
    def test_out_of_layout_table_key_is_refused_before_any_change(self, block, case, match):
        """A cell key must name a cell of a group of the adopted layout,
        in strictly increasing order."""
        source, wire, target = self._wire_and_target()
        store = (source._tables._sketches, source._cuts)[block]
        last = _record(wire, block, -1)
        if case == "group":
            wire[last] = store.num_groups * store.stride
        elif case == "cell":
            index, key = _past_group_key(wire, block, store)
            wire[_record(wire, block, index)] = key
        elif case == "repeat":
            wire[last] = wire[_record(wire, block, -2)]
        else:
            wire[_record(wire, block, 0)] = -1
        self._refused(wire, target, match)

    @pytest.mark.parametrize("block", [0, 1], ids=["tables", "cuts"])
    @pytest.mark.parametrize(
        "case, match",
        [
            ("count-overruns", "overruns"),
            ("fingerprint-past-p", "fingerprint outside"),
            ("negative-fingerprint", "fingerprint outside"),
            ("all-zero-cell", "all-zero cell"),
        ],
        ids=["count-overruns", "fingerprint-past-p", "negative-fingerprint", "all-zero-cell"],
    )
    def test_malformed_cell_block_is_refused_before_any_change(self, block, case, match):
        _, wire, target = self._wire_and_target()
        last = _record(wire, block, -1)
        if case == "count-overruns":
            wire[0 if block == 0 else 1 + 4 * wire[0]] = len(wire)
        elif case == "fingerprint-past-p":
            wire[last + 3] = MERSENNE_61
        elif case == "negative-fingerprint":
            wire[last + 3] = -1
        else:
            wire[last + 1 : last + 4] = [0, 0, 0]
        self._refused(wire, target, match)

    @pytest.mark.parametrize(
        "edit, match",
        [("truncated", "overruns"), ("trailing-int", "state ints")],
        ids=["truncated", "trailing-int"],
    )
    def test_misframed_wire_is_refused_before_any_change(self, edit, match):
        _, wire, target = self._wire_and_target()
        if edit == "truncated":
            wire.pop()
        else:
            wire.append(0)
        self._refused(wire, target, match)


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
