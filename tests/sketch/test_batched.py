"""Batch path correctness: kernels and scalar/batched bit-identity.

Two layers of guarantees:

* the numpy field-arithmetic kernels in :mod:`repro.sketch.kernels`
  agree exactly with Python's arbitrary-precision arithmetic;
* the batch engines — a one-row
  :class:`~repro.sketch.columnar.SketchStack` fed by ``scatter`` (with
  its exact spill to scalar sketches) and the pass-2
  :class:`~repro.sketch.table_store.NeighborhoodTableStore` — land in
  *bit-identical* state to the equivalent sequence of scalar ``update``
  / ``add_neighbor`` calls — including interleaved inserts/deletes,
  zero deltas, arbitrary-precision deltas (the spill path), arbitrary
  chunkings, and interaction with ``combine`` — and reject what the
  scalar oracle rejects.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sketch import (
    MERSENNE_61,
    KWiseHash,
    NeighborhoodHashTable,
    NestedSampler,
    SketchStack,
    SparseRecoverySketch,
)
from repro.sketch.table_store import NeighborhoodTableStore
from repro.sketch.kernels import (
    build_pow_table,
    mulmod61,
    polyhash61,
    scatter_sum_mod61,
    stack_positions_terms,
)

DOMAIN = 2_000

field_elements = st.integers(min_value=0, max_value=MERSENNE_61 - 1)


class TestKernels:
    @given(a=field_elements, b=field_elements)
    @settings(max_examples=200, deadline=None)
    def test_mulmod61_matches_python(self, a, b):
        result = mulmod61(np.array([a], dtype=np.uint64), np.array([b], dtype=np.uint64))
        assert int(result[0]) == a * b % MERSENNE_61

    @given(
        coefficients=st.lists(field_elements, min_size=1, max_size=8),
        xs=st.lists(st.integers(min_value=0, max_value=MERSENNE_61 - 1), min_size=1, max_size=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_polyhash61_is_horner(self, coefficients, xs):
        values = polyhash61(coefficients, np.array(xs, dtype=np.int64) % MERSENNE_61)
        for x, value in zip(xs, values):
            acc = 0
            for coefficient in coefficients:
                acc = (acc * x + coefficient) % MERSENNE_61
            assert int(value) == acc

    @given(
        base=st.integers(min_value=1, max_value=MERSENNE_61 - 1),
        exponents=st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_powmod61_matches_pow(self, base, exponents):
        # Powers come from build_pow_table's byte windows, gathered by
        # stack_positions_terms: unit residues leave base^e as the term.
        table = build_pow_table([base], max(exponents))
        _, values = stack_positions_terms(
            np.zeros((1, 1, 2), dtype=np.uint64),
            table,
            np.array(exponents, dtype=np.int64),
            np.ones(len(exponents), dtype=np.uint64),
            1,
            np.zeros(len(exponents), dtype=np.int64),
        )
        for exponent, value in zip(exponents, values):
            assert int(value) == pow(base, exponent, MERSENNE_61)

    @given(
        entries=st.lists(
            st.tuples(st.integers(min_value=0, max_value=7), field_elements),
            min_size=0,
            max_size=64,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_scatter_sum_mod61(self, entries):
        positions = np.array([cell for cell, _ in entries], dtype=np.int64)
        terms = np.array([term for _, term in entries], dtype=np.uint64)
        result = scatter_sum_mod61(8, positions, terms)
        for cell in range(8):
            expected = sum(term for position, term in entries if position == cell)
            assert int(result[cell]) == expected % MERSENNE_61


class TestVectorizedHashing:
    def test_values_array_matches_scalar(self):
        hash_function = KWiseHash.shared(6, "batched-test")
        xs = np.arange(0, 5_000, 7, dtype=np.int64)
        values = hash_function.values_array(xs)
        for x, value in zip(xs, values):
            assert int(value) == hash_function(int(x))

    def test_bucket_array_matches_scalar(self):
        hash_function = KWiseHash.shared(4, "bucket-test")
        xs = np.arange(0, 3_000, 11, dtype=np.int64)
        buckets = hash_function.bucket_array(xs, 37)
        for x, bucket in zip(xs, buckets):
            assert int(bucket) == hash_function.bucket(int(x), 37)

    def test_level_array_matches_scalar(self):
        sampler = NestedSampler(24, "level-test")
        xs = np.arange(0, 50_000, 13, dtype=np.int64)
        levels = sampler.level_array(xs)
        for x, level in zip(xs, levels):
            assert int(level) == sampler.level(int(x))

    def test_level_agrees_with_contains(self):
        sampler = NestedSampler(12, "contains-test")
        for x in range(500):
            level = sampler.level(x)
            for j in range(sampler.max_level + 1):
                assert sampler.contains(x, j) == (j <= level)


update_batches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=DOMAIN - 1),
        st.integers(min_value=-3, max_value=3),
    ),
    min_size=0,
    max_size=300,
)


def _apply_scalar(sketch, updates):
    for index, delta in updates:
        sketch.update(index, delta)


def _apply_batched(stack, updates, chunk):
    for start in range(0, len(updates), chunk):
        piece = updates[start : start + chunk]
        stack.scatter(
            [0] * len(piece), [index for index, _ in piece], [delta for _, delta in piece]
        )


#: (scalar oracle, one-row stack) pairs of one seed and shape: the
#: default shape, and the three-row shape of the L0 sampler levels.
SKETCH_FACTORIES = [
    (lambda: SparseRecoverySketch(DOMAIN, 4, seed="prop"),
     lambda: SketchStack(1, DOMAIN, 4, "prop")),
    (lambda: SparseRecoverySketch(DOMAIN, 8, seed="prop", rows=3),
     lambda: SketchStack(1, DOMAIN, 8, "prop", rows=3)),
]


def _table_store(num_vertices, capacity, seed):
    """A one-table store seeded like ``NeighborhoodHashTable(num_vertices,
    capacity, seed)``."""
    return NeighborhoodTableStore(num_vertices, [capacity], lambda group: seed)


class TestBitIdentity:
    @given(updates=update_batches, chunk=st.integers(min_value=1, max_value=301))
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_scalar_sequence(self, updates, chunk):
        for scalar_factory, stack_factory in SKETCH_FACTORIES:
            scalar, batched = scalar_factory(), stack_factory()
            _apply_scalar(scalar, updates)
            _apply_batched(batched, updates, chunk)
            assert scalar.state_ints() == batched.row_state_ints(0)

    @given(
        first=update_batches,
        second=update_batches,
        sign=st.sampled_from([1, -1]),
    )
    @settings(max_examples=15, deadline=None)
    def test_combine_mixes_scalar_and_batched(self, first, second, sign):
        for scalar_factory, stack_factory in SKETCH_FACTORIES:
            scalar_a, scalar_b = scalar_factory(), scalar_factory()
            _apply_scalar(scalar_a, first)
            _apply_scalar(scalar_b, second)
            scalar_a.combine(scalar_b, sign)

            batched_a, batched_b = stack_factory(), stack_factory()
            _apply_batched(batched_a, first, 64)
            _apply_batched(batched_b, second, 64)
            batched_a.combine(batched_b, sign)

            assert scalar_a.state_ints() == batched_a.row_state_ints(0)

    @given(
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=DOMAIN - 1),
                st.integers(min_value=-(2**64), max_value=2**64),
            ),
            min_size=0,
            max_size=60,
        )
    )
    @example(updates=[(3, 2**63), (4, -1)])
    @example(updates=[(5, 2**63), (6, 2**64 - 1)])
    @settings(max_examples=15, deadline=None)
    def test_arbitrary_precision_deltas(self, updates):
        # The int64 planes must hand off to the exact spilled sketches
        # when serialized-payload-sized deltas appear, and keep
        # absorbing batches through the spill afterwards.
        scalar = SparseRecoverySketch(DOMAIN, 4, seed="prop")
        stack = SketchStack(1, DOMAIN, 4, "prop")
        _apply_scalar(scalar, updates)
        for index, delta in updates:
            if -(2**63) <= delta < 2**63:
                stack.scatter([0], [index], [delta])
            else:
                stack.update_row(0, index, delta)
        assert scalar.state_ints() == stack.row_state_ints(0)

    def test_int64_min_delta_is_exact(self):
        # np.abs(-2**63) wraps in int64; the headroom guard must still
        # see this batch's magnitude and spill it to the exact sketches.
        updates = [(index, 1) for index in range(400)] + [(7, -(2**63))]
        for scalar_factory, stack_factory in SKETCH_FACTORIES:
            scalar, batched = scalar_factory(), stack_factory()
            _apply_scalar(scalar, updates)
            _apply_batched(batched, updates, len(updates))
            assert batched.is_spilled()
            assert scalar.state_ints() == batched.row_state_ints(0)

    def test_interleaved_insert_delete_cancels(self):
        stack = SketchStack(1, DOMAIN, 4, "cancel")
        indices = list(range(0, DOMAIN, 5))
        stack.scatter([0] * len(indices), indices, [1] * len(indices))
        stack.scatter([0] * len(indices), indices, [-1] * len(indices))
        assert stack.is_row_zero(0)
        assert all(value == 0 for value in stack.row_state_ints(0))

    def test_zero_deltas_are_no_ops(self):
        stack = SketchStack(1, DOMAIN, 4, "zeros")
        before = stack.row_state_ints(0)
        stack.scatter([0, 0, 0], [1, 2, 3], [0, 0, 0])
        assert stack.row_state_ints(0) == before

    def test_out_of_domain_batch_rejected(self):
        with pytest.raises(IndexError):
            SketchStack(1, DOMAIN, 4, "bounds").scatter([0, 0], [0, DOMAIN], [1, 1])

    @pytest.mark.parametrize(
        "apply",
        [
            lambda: SketchStack(1, 100, 4, "x").scatter([0, 0], [3, 4], [1.9, -0.5]),
            lambda: SketchStack(1, 100, 4, "x").scatter([0] * 300, [2.7] * 300, [1] * 300),
            lambda: SketchStack(1, 100, 4, "x").scatter(
                np.zeros(300, dtype=np.int64),
                np.arange(300, dtype=np.float64) % 100,
                np.ones(300, dtype=np.int64),
            ),
            lambda: _table_store(20, 4, "x").add([0, 0], [1.5, 2], [3, 4], [1, 1]),
            lambda: _table_store(20, 4, "x").add([0, 0], [1, 2], [3, 4], [0.5, 1]),
            lambda: _table_store(20, 4, "x").add([0, 0], [1, 2], [3, 4], [0.9, 1]),
            lambda: _table_store(20, 4, "x").add([0, 0], [1, 2], [3.5, 4], [1, 1]),
        ],
        ids=[
            "float-deltas", "float-indices-long", "float64-ndarray", "table-float-keys",
            "table-float-deltas", "neighborhood-float-deltas", "neighborhood-float-neighbors",
        ],
    )
    def test_non_integer_batch_rejected(self, apply):
        # Casting to int64 would truncate; the scalar oracle rejects a
        # float index, so the batch paths must not guess either.
        with pytest.raises(TypeError):
            apply()


class TestNeighborhoodTableBatch:
    @given(
        entries=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=59),
                st.integers(min_value=0, max_value=59),
                st.sampled_from([1, -1]),
            ),
            min_size=0,
            max_size=120,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_batched_table_decodes_identically(self, entries):
        scalar = NeighborhoodHashTable(60, 16, seed="table-prop")
        batched = _table_store(60, 16, "table-prop")
        for key, neighbor, sign in entries:
            scalar.add_neighbor(key, neighbor, sign)
        batched.add(
            [0] * len(entries),
            [key for key, _, _ in entries],
            [neighbor for _, neighbor, _ in entries],
            [sign for _, _, sign in entries],
        )
        # One table: a wire cell key is the cell's index in its dense state.
        state = scalar.state_ints()
        cells = len(state) // 3
        nonzero = [(cell, *state[cell::cells]) for cell in range(cells) if any(state[cell::cells])]
        assert batched.sparse_state_ints() == [len(nonzero)] + [v for cell in nonzero for v in cell]
        assert batched.decode().get(0, {}) == scalar.decode_neighbors()
