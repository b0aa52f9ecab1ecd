"""The grouped pass-2 stores against their scalar oracles.

:class:`~repro.sketch.table_store.NeighborhoodTableStore` holds every
``(root, stack, j)`` table of a spanner's pass 2 as nonzero cells only and
decodes them in one batched peel.  Each test below runs a random stream
through a builder twice: once on the store, once with the store swapped
for :class:`OracleTables` — one standalone
:class:`~repro.sketch.linear_hash_table.NeighborhoodHashTable` per table,
fed by scalar ``add_neighbor`` and seeded and sized from the table key
alone.  Per-table dense ``state_ints`` (the store's rebuilt from its
nonzero-cell wire), decode results, the builder's pass-1 wire and
diagnostics, spanner edges, ``space_report()`` and ``space_words()`` must
all agree, on the scalar, batched, clone and 3-shard-merge paths.
"""

from __future__ import annotations

import math
import random
from functools import partial
from itertools import chain

import pytest

import numpy as np

from repro.core.parameters import SpannerParams
from repro.core.two_pass_spanner import TwoPassSpannerBuilder, _table_name
from repro.graph.vertex_space import VertexSpace
from repro.sketch.linear_hash_table import NeighborhoodHashTable
from repro.sketch.sparse_recovery import SparseRecoverySketch
from repro.sketch import table_store
from repro.sketch.table_store import SparseRecoveryStore, decode_tables
from repro.stream.generators import mixed_workload_stream, power_law_universe_stream
from repro.stream.updates import EdgeUpdate
from repro.util.rng import derive_seed


class OracleTables:
    """The store's builder-facing interface over standalone scalar tables.

    Seeds and capacities come from the table key through the historical
    per-table formulas, not from the store, so a store that drew a
    table's randomness from the wrong unit disagrees here.  The wire is
    read off each table's dense ``state_ints()``: one ``(group * stride
    + cell, total, index sum, fingerprint)`` record per nonzero cell, so
    the builder's pass-1 wire over the oracle is the store's wire built
    without the store.
    """

    def __init__(self, builder: TwoPassSpannerBuilder):
        self.builder = builder
        self.tables: dict[int, NeighborhoodHashTable] = {}
        # Wire cell keys are ``group * stride + cell``: stride is the
        # largest table's cell count.
        self.stride = max(
            self._new_table(root, "shape-only").state_len() // 3
            for root in builder._routing.roots
        )

    def _new_table(self, root, seed) -> NeighborhoodHashTable:
        b = self.builder
        return NeighborhoodHashTable(
            b.num_vertices,
            b.params.table_capacity(b._table_effective_n, root[1], b.k),
            seed,
            rows=b.params.table_rows,
            bucket_factor=b.params.table_bucket_factor,
        )

    def table(self, group: int) -> NeighborhoodHashTable:
        found = self.tables.get(group)
        if found is None:
            b = self.builder
            root, stack, j = _table_name(
                b._routing.roots, b.params.table_stacks, b._routing.levels, group
            )
            found = self._new_table(root, derive_seed(b._seed, "table", root[0], root[1], stack, j))
            self.tables[group] = found
        return found

    def add(self, groups, keys, neighbors, deltas) -> None:
        for group, key, neighbor, delta in zip(
            groups.tolist(), keys.tolist(), neighbors.tolist(), deltas.tolist()
        ):
            self.table(group).add_neighbor(key=key, neighbor=neighbor, delta=delta)

    def touched_groups(self) -> list[int]:
        return sorted(self.tables)

    def nonzero_groups(self) -> list[int]:
        return [g for g in sorted(self.tables) if not self.tables[g].is_zero()]

    def sparse_state_ints(self) -> list[int]:
        """The nonzero cells of the tables' dense states, as records."""
        records = []
        for group in self.nonzero_groups():
            state = self.tables[group].state_ints()
            cells = len(state) // 3
            for cell in range(cells):
                record = state[cell::cells]  # total, index sum, fingerprint
                if any(record):
                    records.append((group * self.stride + cell, *record))
        return [len(records), *chain.from_iterable(records)]

    def load_sparse_state(self, values, cursor=0) -> int:
        """Overwrite every table from the records (absent cells: zero)."""
        count = values[cursor]
        states = {}
        for key, *record in zip(*[iter(values[cursor + 1 : cursor + 1 + 4 * count])] * 4):
            group, cell = divmod(key, self.stride)
            cells = self.table(group).state_len() // 3
            state = states.setdefault(group, [0] * (3 * cells))
            state[cell::cells] = record
        for group in set(self.tables) | set(states):
            table = self.table(group)
            table.from_state_ints(states.get(group, [0] * table.state_len()))
        return cursor + 1 + 4 * count

    def combine(self, other: "OracleTables") -> None:
        for group, table in other.tables.items():
            self.table(group).combine(table)

    def clone(self) -> "OracleTables":
        clone = OracleTables(self.builder)
        clone.tables = {g: t.clone() for g, t in self.tables.items()}
        return clone

    def decode(self):
        return {g: t.decode_neighbors() for g, t in self.tables.items()}

    def space_words(self) -> int:
        return sum(t.space_words() for t in self.tables.values())


def _feed(builder, tokens, pass_index, chunk):
    if chunk is None:
        for update in tokens:
            builder.process(update, pass_index)
    else:
        for start in range(0, len(tokens), chunk):
            builder.process_batch(tokens[start : start + chunk], pass_index)


def _pair(make, tokens, chunk):
    """(store builder, oracle builder) after pass 1 and the forest."""
    builders = []
    for oracle in (False, True):
        builder = make()
        _feed(builder, tokens, 0, chunk)
        builder.end_pass(0)
        if oracle:
            builder._tables = OracleTables(builder)
        builders.append(builder)
    return builders


def _dense_states(store: SparseRecoveryStore) -> dict[int, list[int]]:
    """``{group: dense state_ints}`` of a store's nonzero groups, rebuilt
    from its nonzero-cell wire alone."""
    wire = store.sparse_state_ints()
    states = {}
    for key, *record in zip(*[iter(wire[1:])] * 4):
        group, cell = divmod(key, store.stride)
        cells = store.rows * max(4, math.ceil(store.bucket_factor * int(store.budgets[group])))
        state = states.setdefault(group, [0] * (3 * cells))
        state[cell::cells] = record
    assert len(wire) == 1 + 4 * wire[0]
    return states


def _assert_same(store_builder, oracle_builder):
    store, oracle = store_builder._tables, oracle_builder._tables
    assert store.touched_groups() == oracle.touched_groups()
    store.flush()  # land the buffered incidences in the cells read below
    assert _dense_states(store._sketches) == {
        group: oracle.table(group).state_ints() for group in oracle.nonzero_groups()
    }
    assert store.decode() == oracle.decode()
    assert store_builder.shard_state_ints(1) == oracle_builder.shard_state_ints(1)
    assert store_builder.space_report() == oracle_builder.space_report()
    assert store_builder.space_words() == oracle_builder.space_words()
    mine, theirs = store_builder.finalize(), oracle_builder.finalize()
    assert mine.spanner.edge_set() == theirs.spanner.edge_set()
    assert mine.diagnostics == theirs.diagnostics
    assert mine.observed_edges == theirs.observed_edges
    return mine


def _cancelling_stream(n: int, seed: str) -> list[EdgeUpdate]:
    """Every edge inserted, then every edge deleted: pass 2 nets to zero."""
    rng = random.Random(seed)
    pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(8 * n)}
    inserts = [EdgeUpdate(u, v, +1) for u, v in sorted(pairs)]
    deletes = [EdgeUpdate(u, v, -1) for u, v in sorted(pairs)]
    rng.shuffle(deletes)
    return inserts + deletes


#: name -> (builder factory, token list)
STREAMS = {
    "dense-n32-k2": (
        lambda: TwoPassSpannerBuilder(32, 2, "store-oracle-a"),
        lambda: list(mixed_workload_stream(32, 1800, "store-a")),
    ),
    "dense-n32-k3": (
        lambda: TwoPassSpannerBuilder(32, 3, "store-oracle-b", augmented=True),
        lambda: list(mixed_workload_stream(32, 1800, "store-b")),
    ),
    "four-stacks": (
        lambda: TwoPassSpannerBuilder(
            20, 2, "store-oracle-c", params=SpannerParams(table_stacks=4, table_rows=4)
        ),
        lambda: list(mixed_workload_stream(20, 1200, "store-c")),
    ),
    "lazy-1e7": (
        lambda: TwoPassSpannerBuilder(VertexSpace.sparse(10**7), 3, "store-oracle-d"),
        lambda: list(power_law_universe_stream(10**7, 120, 900, "store-d", exponent=1.2)),
    ),
    "cancel-to-zero": (
        lambda: TwoPassSpannerBuilder(40, 2, "store-oracle-e"),
        lambda: _cancelling_stream(40, "store-e"),
    ),
    "overflowing": (
        lambda: TwoPassSpannerBuilder(
            32, 2, "store-oracle-f", params=SpannerParams(table_capacity_factor=0.05)
        ),
        lambda: list(mixed_workload_stream(32, 1800, "store-f")),
    ),
}


def _stream(name):
    make, tokens = STREAMS[name]
    return make, tokens()


def _check_stream_shape(name, builder, output):
    if name == "cancel-to-zero":
        # Tables and cut sketches were touched, none holds a cell: both
        # blocks of the wire are empty.
        assert builder._tables.touched_groups()
        assert builder.shard_state_ints(1) == [0, 0]
    if name == "overflowing":
        assert output.diagnostics["pass2_table_overflows"] > 0


@pytest.mark.parametrize("name", sorted(STREAMS))
class TestStoreMatchesScalarTables:
    def test_scalar_path(self, name):
        make, tokens = _stream(name)
        store, oracle = _pair(make, tokens, None)
        for builder in (store, oracle):
            _feed(builder, tokens, 1, None)
        _check_stream_shape(name, store, _assert_same(store, oracle))

    def test_batched_path(self, name):
        make, tokens = _stream(name)
        store, oracle = _pair(make, tokens, 250)
        for builder in (store, oracle):
            _feed(builder, tokens, 1, 250)
        _check_stream_shape(name, store, _assert_same(store, oracle))

    def test_clone_path(self, name):
        """A clone taken mid-pass-2 and its original both continue; each
        matches its oracle twin, so neither saw the other's updates."""
        make, tokens = _stream(name)
        store, oracle = _pair(make, tokens, 250)
        half = len(tokens) // 2
        for builder in (store, oracle):
            _feed(builder, tokens[:half], 1, 250)
        store_clone, oracle_clone = store.clone(), oracle.clone()
        for builder in (store_clone, oracle_clone):
            _feed(builder, tokens[half:], 1, 250)
        for builder in (store, oracle):
            _feed(builder, tokens[half:][::-1], 1, None)
        _assert_same(store_clone, oracle_clone)
        _assert_same(store, oracle)

    def test_three_shard_merge_path(self, name):
        """Pass 2 sharded three ways: every shard's wire is loaded into a
        fresh builder that adopted the coordinator's forest, and merged."""
        make, tokens = _stream(name)
        store, oracle = _pair(make, tokens, 250)
        for coordinator in (store, oracle):
            oracle_side = coordinator is oracle
            for shard in range(3):
                worker, rebuilt = make(), make()
                for builder in (worker, rebuilt):
                    builder.adopt_forest_from(coordinator)
                    if oracle_side:
                        builder._tables = OracleTables(builder)
                _feed(worker, tokens[shard::3], 1, 250)
                rebuilt.load_shard_state_ints(1, worker.shard_state_ints(1))
                coordinator.merge_second_pass(rebuilt)
        _assert_same(store, oracle)


@pytest.mark.parametrize("block", [1, 2, 64])
def test_batched_decode_matches_each_store_and_the_oracle(monkeypatch, block):
    """One batched decode over stores of different capacities (hence
    budgets and strides) equals each store's own decode and the scalar
    oracle's, store by store — with blocks forced down to one and two
    tables, so a store's tables span blocks and a block spans stores."""
    monkeypatch.setattr(table_store, "_DECODE_BLOCK", block)
    tokens = list(mixed_workload_stream(24, 900, "batched-decode"))
    pairs = []
    for index, factor in enumerate((0.05, 0.75, 3.0)):
        make = partial(
            TwoPassSpannerBuilder, 24, 2, f"batched-decode-{index}",
            params=SpannerParams(table_capacity_factor=factor),
        )
        store, oracle = _pair(make, tokens[index::2], 100)
        for builder in (store, oracle):
            _feed(builder, tokens[index::2], 1, 100)
        pairs.append((store, oracle))
    stores = [store._tables for store, _ in pairs]
    assert len({store._sketches.stride for store in stores}) > 1
    wires = [store.shard_state_ints(1) for store, _ in pairs]
    batched = decode_tables(stores)
    assert batched == [store.decode() for store in stores]
    assert batched == [oracle._tables.decode() for _, oracle in pairs]
    # Decoding leaves every store's state as it was.
    assert wires == [store.shard_state_ints(1) for store, _ in pairs]
    assert any(None in decoded.values() for decoded in batched)  # an overflow
    outputs = TwoPassSpannerBuilder.finalize_many([store for store, _ in pairs])
    for output, (_, oracle) in zip(outputs, pairs):
        expected = oracle.finalize()
        assert output.spanner.edge_set() == expected.spanner.edge_set()
        assert output.diagnostics == expected.diagnostics


def test_batched_decode_rejects_different_shapes():
    tokens = list(mixed_workload_stream(16, 400, "batched-shape"))
    stores = []
    for rows in (3, 4):
        builder = TwoPassSpannerBuilder(16, 2, "batched-shape", params=SpannerParams(table_rows=rows))
        _feed(builder, tokens, 0, 100)
        builder.end_pass(0)
        _feed(builder, tokens, 1, 100)
        stores.append(builder._tables)
    with pytest.raises(ValueError, match="shapes"):
        decode_tables(stores)


def test_store_rejects_a_different_layout():
    make, tokens = _stream("dense-n32-k2")
    store, _ = _pair(make, tokens, 250)
    other = TwoPassSpannerBuilder(32, 2, "store-oracle-a", params=SpannerParams(table_stacks=2))
    _feed(other, tokens, 0, 250)
    other.end_pass(0)
    with pytest.raises(ValueError, match="layouts"):
        store._tables.combine(other._tables)


@pytest.mark.parametrize("domain", [60, 10**14], ids=["small", "pair-domain"])
def test_sparse_recovery_store_matches_standalone_sketches(domain):
    """The cut-sketch store: per-group dense state, decodes (including
    failed ones), space words, clone, wire round trip and combine all
    equal standalone ``SparseRecoverySketch``es fed by scalar ``update``
    — with cancellations and payload-sized exact values mixed in."""
    rng = random.Random(f"store-{domain}")
    budgets = [1, 3, 8, 24, 40, 40, 64]  # some groups overflow, most decode
    seed_of = "cut-{}".format
    updates = []
    for _ in range(260):
        group = rng.randrange(len(budgets))
        coord = rng.randrange(domain)
        value = rng.choice([1, -1, 2, 2**70, -(2**66)]) if rng.random() < 0.1 else rng.choice([1, -1])
        updates.append((group, coord, value))
        if rng.random() < 0.3:
            updates.append((group, coord, -value))
    halves = (updates[: len(updates) // 2], updates[len(updates) // 2 :])
    stores, oracles = [], []
    for half in halves:
        store = SparseRecoveryStore(domain, budgets, seed_of, rows=3)
        oracle = {}
        for start in range(0, len(half), 37):
            chunk = half[start : start + 37]
            values = [v for _, _, v in chunk]
            exact = any(abs(v) >= 2**62 for v in values)
            store.add(
                [g for g, _, _ in chunk],
                [c for _, c, _ in chunk],
                np.array(values, dtype=object if exact else np.int64),
            )
        for group, coord, value in half:
            oracle.setdefault(
                group, SparseRecoverySketch(domain, budgets[group], seed_of(group), rows=3)
            ).update(coord, value)
        stores.append(store)
        oracles.append(oracle)

    def check(store, oracle):
        assert store.touched_groups() == sorted(oracle)
        assert _dense_states(store) == {
            group: sketch.state_ints() for group, sketch in oracle.items() if not sketch.is_zero()
        }
        assert store.decode() == {g: sketch.decode() for g, sketch in oracle.items()}
        assert store.space_words() == sum(sketch.space_words() for sketch in oracle.values())

    for store, oracle in zip(stores, oracles):
        check(store, oracle)
        outcomes = store.decode().values()
        assert None in outcomes and any(outcomes)
    # Wire round trip into a fresh store (which holds exactly the
    # nonzero groups), then combine both halves.
    first, second = stores
    rebuilt = SparseRecoveryStore(domain, budgets, seed_of, rows=3)
    wire = first.sparse_state_ints()
    assert rebuilt.load_sparse_state(wire) == len(wire)
    assert rebuilt.sparse_state_ints() == wire
    shipped = {g: sketch for g, sketch in oracles[0].items() if not sketch.is_zero()}
    check(rebuilt, shipped)
    snapshot = rebuilt.clone()
    rebuilt.combine(second)
    merged = {g: sketch.clone() for g, sketch in shipped.items()}
    for group, sketch in oracles[1].items():
        if group in merged:
            merged[group].combine(sketch)
        else:
            merged[group] = sketch.clone()
    check(rebuilt, merged)
    check(snapshot, shipped)  # the clone did not see the combine


def test_sparse_recovery_store_pairs_never_wrap_int64():
    """A group index times an ``n^2`` cut-sketch domain overflows
    ``int64`` (10^6 roots of a 10^7-id universe reach ~10^20): groups
    and coordinates are handled as pairs, so the last group decodes
    exactly like its standalone sketch."""
    domain, groups = 10**14, 10**6
    store = SparseRecoveryStore(domain, np.full(groups, 4), "wide-{}".format, rows=3)
    oracle = SparseRecoverySketch(domain, 4, "wide-999999", rows=3)
    for coord, value in ((domain - 1, 1), (domain // 3, -2), (7, 1)):
        store.add([groups - 1], [coord], [value])
        oracle.update(coord, value)
    assert _dense_states(store) == {groups - 1: oracle.state_ints()}
    assert store.decode() == {groups - 1: oracle.decode()}
    assert oracle.decode() == {domain - 1: 1, domain // 3: -2, 7: 1}


def _nonzero_cells(state: list[int]) -> int:
    """Cells of a dense sketch state with any nonzero plane."""
    cells = len(state) // 3
    return sum(1 for cell in range(cells) if any(state[cell::cells]))


@pytest.mark.parametrize("name", ["dense-n32-k2", "lazy-1e7", "cancel-to-zero"])
def test_pass_one_wire_ships_the_nonzero_cells(name):
    """The pass-1 message is the nonzero state: a count per block (the
    tables, then the cut sketches) and four ints per nonzero cell of the
    scalar oracle's tables and of the cut sketches — ``[0, 0]`` when
    pass 2 nets to zero.  A fresh builder on the same forest loads it,
    re-ships the identical ints and decodes the identical spanner."""
    make, tokens = _stream(name)
    store, oracle = _pair(make, tokens, 250)
    for builder in (store, oracle):
        _feed(builder, tokens, 1, 250)
    table_cells = sum(
        _nonzero_cells(oracle._tables.table(group).state_ints())
        for group in oracle._tables.nonzero_groups()
    )
    cut_cells = sum(map(_nonzero_cells, _dense_states(store._cuts).values()))
    wire = store.shard_state_ints(1)
    assert len(wire) == 2 + 4 * (table_cells + cut_cells)
    assert wire[0] == table_cells and wire[1 + 4 * table_cells] == cut_cells
    if name == "cancel-to-zero":
        assert wire == [0, 0]
    rebuilt = make()
    rebuilt.adopt_forest_from(store)
    rebuilt.load_shard_state_ints(1, wire)
    assert rebuilt.shard_state_ints(1) == wire
    assert rebuilt.finalize().spanner.edge_set() == store.finalize().spanner.edge_set()
