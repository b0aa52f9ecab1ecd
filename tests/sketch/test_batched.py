"""Batch path correctness: kernels and scalar/batched bit-identity.

Two layers of guarantees:

* the numpy field-arithmetic kernels in :mod:`repro.sketch.kernels`
  agree exactly with Python's arbitrary-precision arithmetic;
* the one per-sketch batch path,
  :meth:`~repro.sketch.sparse_recovery.SparseRecoverySketch.update_batch`
  (the pass-2 hash tables and the columnar spill fallback ride it),
  lands in *bit-identical* state to the equivalent sequence of scalar
  ``update`` calls — including interleaved inserts/deletes, zero
  deltas, arbitrary-precision deltas (the fallback path), arbitrary
  chunkings, and interaction with ``combine`` — and rejects what the
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
    LinearHashTable,
    NeighborhoodHashTable,
    NestedSampler,
    SparseRecoverySketch,
)
from repro.sketch.kernels import (
    mulmod61,
    polyhash61,
    powmod61,
    scatter_sum_mod61,
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
        values = powmod61(base, np.array(exponents, dtype=np.int64))
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


def _apply_batched(sketch, updates, chunk):
    for start in range(0, len(updates), chunk):
        piece = updates[start : start + chunk]
        sketch.update_batch(
            [index for index, _ in piece], [delta for _, delta in piece]
        )


#: The default shape, and the three-row shape of the L0 sampler levels
#: and the pass-2 hash tables.
SKETCH_FACTORIES = [
    lambda: SparseRecoverySketch(DOMAIN, 4, seed="prop"),
    lambda: SparseRecoverySketch(DOMAIN, 8, seed="prop", rows=3),
]


class TestBitIdentity:
    @given(updates=update_batches, chunk=st.integers(min_value=1, max_value=301))
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_scalar_sequence(self, updates, chunk):
        for factory in SKETCH_FACTORIES:
            scalar, batched = factory(), factory()
            _apply_scalar(scalar, updates)
            _apply_batched(batched, updates, chunk)
            assert scalar.state_ints() == batched.state_ints()

    @given(
        first=update_batches,
        second=update_batches,
        sign=st.sampled_from([1, -1]),
    )
    @settings(max_examples=15, deadline=None)
    def test_combine_mixes_scalar_and_batched(self, first, second, sign):
        for factory in SKETCH_FACTORIES:
            scalar_a, scalar_b = factory(), factory()
            _apply_scalar(scalar_a, first)
            _apply_scalar(scalar_b, second)
            scalar_a.combine(scalar_b, sign)

            batched_a, batched_b = factory(), factory()
            _apply_batched(batched_a, first, 64)
            _apply_batched(batched_b, second, 64)
            batched_a.combine(batched_b, sign)

            assert scalar_a.state_ints() == batched_a.state_ints()

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
    # numpy infers float64 for the first list and uint64 for the second.
    @example(updates=[(3, 2**63), (4, -1)])
    @example(updates=[(5, 2**63), (6, 2**64 - 1)])
    @settings(max_examples=15, deadline=None)
    def test_arbitrary_precision_deltas(self, updates):
        # The int64 fast path must hand off to the exact fallback when
        # serialized-payload-sized deltas appear.
        scalar = SparseRecoverySketch(DOMAIN, 4, seed="prop")
        batched = SparseRecoverySketch(DOMAIN, 4, seed="prop")
        _apply_scalar(scalar, updates)
        batched.update_batch(
            [index for index, _ in updates], [delta for _, delta in updates]
        )
        assert scalar.state_ints() == batched.state_ints()

    def test_int64_min_delta_is_exact(self):
        # np.abs(-2**63) wraps in int64; the guard must still route this
        # batch off the int64 scatter fast path (it fits int64, so the
        # bigint fallback is not taken either).
        updates = [(index, 1) for index in range(400)] + [(7, -(2**63))]
        for factory in SKETCH_FACTORIES:
            scalar, batched = factory(), factory()
            _apply_scalar(scalar, updates)
            _apply_batched(batched, updates, len(updates))
            assert scalar.state_ints() == batched.state_ints()

    def test_interleaved_insert_delete_cancels(self):
        sketch = SparseRecoverySketch(DOMAIN, 4, seed="cancel")
        indices = list(range(0, DOMAIN, 5))  # above SMALL_BATCH: the numpy path
        sketch.update_batch(indices, [1] * len(indices))
        sketch.update_batch(indices, [-1] * len(indices))
        assert sketch.is_zero()
        assert all(value == 0 for value in sketch.state_ints())

    def test_zero_deltas_are_no_ops(self):
        sketch = SparseRecoverySketch(DOMAIN, 4, seed="zeros")
        before = sketch.state_ints()
        sketch.update_batch([1, 2, 3], [0, 0, 0])
        assert sketch.state_ints() == before

    def test_out_of_domain_batch_rejected(self):
        sketch = SparseRecoverySketch(DOMAIN, 4, seed="bounds")
        try:
            sketch.update_batch([0, DOMAIN], [1, 1])
        except IndexError:
            pass
        else:
            raise AssertionError("out-of-domain batch must raise IndexError")

    @pytest.mark.parametrize(
        "apply",
        [
            lambda: SparseRecoverySketch(100, 4, "x").update_batch([3, 4], [1.9, -0.5]),
            lambda: SparseRecoverySketch(100, 4, "x").update_batch([2.7] * 300, [1] * 300),
            lambda: SparseRecoverySketch(100, 4, "x").update_batch(
                np.arange(300, dtype=np.float64) % 100, np.ones(300, dtype=np.int64)
            ),
            lambda: LinearHashTable(20, 3, 4, "x").add_to_payload_batch([1.5, 2], 0, [1, 1]),
            lambda: LinearHashTable(20, 3, 4, "x").add_to_payload_batch([1, 2], 0, [0.5, 1]),
            lambda: NeighborhoodHashTable(20, 4, "x").add_neighbors_batch([1, 2], [3, 4], [0.9, 1]),
            lambda: NeighborhoodHashTable(20, 4, "x").add_neighbors_batch([1, 2], [3.5, 4], [1, 1]),
        ],
        ids=[
            "float-deltas", "float-indices-long", "float64-ndarray", "table-float-keys",
            "table-float-deltas", "neighborhood-float-deltas", "neighborhood-float-neighbors",
        ],
    )
    def test_non_integer_batch_rejected(self, apply):
        # Casting to int64 would truncate; the scalar oracle rejects a
        # float index, so the batch path must not guess either.
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
        batched = NeighborhoodHashTable(60, 16, seed="table-prop")
        for key, neighbor, sign in entries:
            scalar.add_neighbor(key, neighbor, sign)
        batched.add_neighbors_batch(
            [key for key, _, _ in entries],
            [neighbor for _, neighbor, _ in entries],
            [sign for _, _, sign in entries],
        )
        assert scalar.decode_neighbors() == batched.decode_neighbors()
