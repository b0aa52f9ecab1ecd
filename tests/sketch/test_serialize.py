"""Tests for sketch-state serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agm import AgmSketch
from repro.sketch import serialize
from repro.sketch import (
    CountSketch,
    DistinctElementsSketch,
    L0Sampler,
    LinearHashTable,
    NeighborhoodHashTable,
    OneSparseDetector,
    SparseRecoverySketch,
    deserialize_sketch,
    pack_ints,
    serialize_sketch,
    serialized_size_bytes,
    unpack_ints,
)


class TestVarintCodec:
    def test_round_trip_basic(self):
        values = [0, 1, -1, 127, 128, -128, 10**6, -(10**6)]
        assert unpack_ints(pack_ints(values)) == values

    def test_round_trip_huge_values(self):
        values = [2**61 - 1, -(2**61), 2**200, -(2**200) + 1]
        assert unpack_ints(pack_ints(values)) == values

    def test_empty(self):
        assert pack_ints([]) == b""
        assert unpack_ints(b"") == []

    def test_zero_is_one_byte(self):
        assert len(pack_ints([0])) == 1

    def test_zeros_compress(self):
        mostly_zero = [0] * 1000 + [12345]
        packed = pack_ints(mostly_zero)
        assert len(packed) < 1010

    def test_truncated_stream_rejected(self):
        packed = pack_ints([10**9])
        with pytest.raises(ValueError):
            unpack_ints(packed[:-1] + bytes([packed[-1] | 0x80]))

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.integers(min_value=-(2**80), max_value=2**80)))
    def test_round_trip_property(self, values):
        assert unpack_ints(pack_ints(values)) == values


#: Values around every edge of the numpy codec: zero, the last value the
#: int64 block carries (|v| < 2^62), and past int64 altogether.
_EDGE_VALUES = [0, 1, -1, 2**62 - 1, -(2**62 - 1), 2**62, -(2**62), 2**63, -(2**63), 2**70, -(2**70)]


def _random_mix(seed, count):
    """Mostly wire-like values (small counters, 61-bit residues) with an
    occasional value the int64 block cannot carry."""
    rng = np.random.default_rng(seed)
    small = rng.integers(-300, 300, count)
    wide = rng.integers(-(2**61), 2**61, count)
    pick = rng.integers(0, 3, count)
    values = np.where(pick == 0, small, np.where(pick == 1, wide, 0)).tolist()
    for where in rng.integers(0, count, 3).tolist():
        values[where] = 2**63 + where
    return values


class TestNumpyCodec:
    """The numpy block codec is byte-for-byte the exact Python loop."""

    @pytest.mark.parametrize("value", _EDGE_VALUES)
    def test_edge_values_match_exact_loop(self, value):
        for values in ([value], [3, value, -5], [value] * 3):
            packed = pack_ints(values)
            assert packed == serialize._pack_exact(values)
            assert unpack_ints(packed) == serialize._unpack_exact(packed) == values

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_random_mixes_across_block_edges(self, shift):
        count = 2 * serialize._PACK_BLOCK + shift
        values = _random_mix(shift + 1, count)
        packed = pack_ints(values)
        assert packed == serialize._pack_exact(values)
        # Several unpack windows, one of them holding a 10-byte varint.
        assert len(packed) > serialize._UNPACK_BLOCK
        assert unpack_ints(packed) == serialize._unpack_exact(packed) == values

    def test_int64_only_stream_crosses_windows(self):
        values = _random_mix(7, 3 * serialize._PACK_BLOCK)
        values = [v for v in values if abs(v) < 2**62]
        packed = pack_ints(values)
        assert packed == serialize._pack_exact(values)
        assert unpack_ints(packed) == values

    @pytest.mark.parametrize(
        "data",
        [b"\x80\x00", b"\xff\x80\x00\x05", b"\x80" * 9 + b"\x01", b"\x81" * 12 + b"\x00"],
    )
    def test_overlong_varints_match_exact_loop(self, data):
        assert unpack_ints(data) == serialize._unpack_exact(data)

    def test_numpy_integer_input(self):
        values = [0, -1, 2**61, -(2**61) + 5, 2**62 - 1]
        array = np.array(values, dtype=np.int64)
        assert pack_ints(array) == serialize._pack_exact(values)
        assert pack_ints(list(array)) == serialize._pack_exact(values)
        assert pack_ints(array.astype(np.int32)[:2]) == serialize._pack_exact(values[:2])
        unsigned = np.array([2**64 - 1, 5], dtype=np.uint64)
        assert pack_ints(unsigned) == serialize._pack_exact([2**64 - 1, 5])
        assert pack_ints(v for v in values) == serialize._pack_exact(values)

    def test_bools_pack_as_the_exact_loop_does(self):
        assert pack_ints([True, False, True]) == serialize._pack_exact([1, 0, 1])

    @pytest.mark.parametrize("bad", [[1.5], [1, 2.0], [2.0**70], np.array([1.0, 2.0]), [1, "2"], [[1, 2]]])
    def test_non_integers_raise_type_error(self, bad):
        with pytest.raises(TypeError):
            pack_ints(bad)

    @pytest.mark.parametrize(
        "values", [[10**9], [2**70], [1] * (serialize._UNPACK_BLOCK + 5)]
    )
    def test_truncated_streams_raise(self, values):
        packed = pack_ints(values)
        with pytest.raises(ValueError, match="truncated"):
            unpack_ints(packed[:-1] + bytes([packed[-1] | 0x80]))
        with pytest.raises(ValueError, match="truncated"):
            unpack_ints(packed + b"\x80" * (serialize._UNPACK_BLOCK + 1))

    def test_full_int64_range_stays_on_numpy_path(self, monkeypatch):
        """A weighted ledger's float64 weight bits reach 2^62 at weight
        2.0: every int64 packs on the numpy path, byte-for-byte."""
        values = [2**63 - 1, -(2**63), 2**62, -(2**62) - 1, 4611686018427387904, 7]
        expected = serialize._pack_exact(values)
        spy = []
        monkeypatch.setattr(
            serialize, "_pack_exact", lambda block: spy.append(block) or expected
        )
        assert pack_ints(values) == expected
        assert pack_ints(np.array(values, dtype=np.int64)) == expected
        assert spy == []
        assert unpack_ints(expected) == values

    def test_weighted_checkpoint_never_takes_exact_pack(self, monkeypatch, tmp_path):
        from repro.core import SparsifierParams
        from repro.service import GraphSession, load_session
        from repro.stream import EdgeUpdate, mixed_workload_stream

        session = GraphSession(
            16, "weighted-wire", k=2, sparsifier_k=1, weight_bounds=(1.0, 2.0),
            sparsifier_params=SparsifierParams(
                estimate_levels=2, sampling_levels=2, sampling_rounds_factor=0.01
            ),
        )
        session.ingest_batch(list(mixed_workload_stream(14, 600, "wire", weights=(1.0, 2.0))))
        # Weight 2.0's float64 bits are exactly 2^62.
        session.ingest_batch([EdgeUpdate(14, 15, +1, 2.0), EdgeUpdate(13, 15, +1, 2.0)])
        exact = serialize._pack_exact
        spy = []
        monkeypatch.setattr(
            serialize, "_pack_exact", lambda block: spy.append(len(block)) or exact(block)
        )
        session.checkpoint(tmp_path / "weighted.bin")
        assert spy == []
        restored = load_session(tmp_path / "weighted.bin")
        assert sorted(restored.live_graph().edges()) == sorted(session.live_graph().edges())

    @pytest.mark.parametrize(
        "data", [b"\x80" * 9 + b"\x01", b"\xff" * 9 + b"\x01", b"\x80" * 9 + b"\x02"]
    )
    def test_ten_byte_varints(self, data):
        """Ten-byte varints decode on the numpy path when they fit uint64,
        and on the exact loop when they do not."""
        assert unpack_ints(data) == serialize._unpack_exact(data)
        assert unpack_ints(b"\x05" + data + b"\x03") == [-3, *serialize._unpack_exact(data), -2]

    def test_buffer_types(self):
        packed = pack_ints([5, -7, 2**61])
        for data in (bytearray(packed), memoryview(packed)):
            assert unpack_ints(data) == [5, -7, 2**61]


class TestStateInts:
    def test_one_sparse_detector(self):
        detector = OneSparseDetector(100, seed=1)
        detector.update(5, 3)
        state = detector.state_ints()
        assert len(state) == 3
        clone = OneSparseDetector(100, seed=1)
        clone.load_state_vector(tuple(state))
        assert clone.decode().index == 5

    def test_sparse_recovery_state_reflects_updates(self):
        sketch = SparseRecoverySketch(1000, 4, seed=2)
        empty_state = sketch.state_ints()
        assert all(v == 0 for v in empty_state)
        sketch.update(10, 1)
        assert any(v != 0 for v in sketch.state_ints())

    def test_serialized_size_grows_with_content(self):
        sketch = SparseRecoverySketch(1000, 8, seed=3)
        empty_size = serialized_size_bytes(sketch)
        for i in range(8):
            sketch.update(i * 101, 1)
        assert serialized_size_bytes(sketch) > empty_size

    def test_all_sketch_types_serializable(self):
        sketches = [
            SparseRecoverySketch(100, 4, seed=4),
            L0Sampler(100, seed=5),
            DistinctElementsSketch(100, seed=6),
            CountSketch(100, 4, seed=7),
            AgmSketch(10, seed=8),
            LinearHashTable(16, 3, 4, seed=9),
            NeighborhoodHashTable(16, 4, seed=10),
        ]
        for sketch in sketches:
            size = serialized_size_bytes(sketch)
            assert size > 0
            assert unpack_ints(pack_ints(sketch.state_ints())) == sketch.state_ints()

    def test_hash_tables_expose_state_ints(self):
        # Regression: the tables advertised combine() but state_ints()
        # raised AttributeError, breaking serialized_size_bytes on them.
        table = LinearHashTable(key_domain=8, payload_len=2, capacity=2, seed=1)
        table.add_payload(3, [2**61 - 1, -(2**61)])
        assert serialized_size_bytes(table) > 0
        neighborhood = NeighborhoodHashTable(8, 2, seed=2)
        neighborhood.add_neighbor(key=3, neighbor=5, delta=1)
        assert serialized_size_bytes(neighborhood) > 0

    def test_from_state_ints_rejects_wrong_length(self):
        detector = OneSparseDetector(100, seed=1)
        with pytest.raises(ValueError):
            detector.from_state_ints([1, 2])
        sketch = SparseRecoverySketch(100, 4, seed=2)
        with pytest.raises(ValueError):
            sketch.from_state_ints([0])

    def test_additive_builder_message(self):
        from repro.core import AdditiveSpannerBuilder
        from repro.stream.updates import EdgeUpdate

        builder = AdditiveSpannerBuilder(16, 2, seed=9)
        empty_message = serialized_size_bytes(builder)
        builder.begin_pass(0)
        for u in range(15):
            builder.process(EdgeUpdate(u, u + 1, +1), 0)
        loaded_message = serialized_size_bytes(builder)
        assert loaded_message > empty_message


# Deltas spanning the regimes the protocol must survive: zero-adjacent,
# negative, int64-boundary, and well past 2^64.
_EXTREME_DELTAS = [1, -1, 3, -(2**63), 2**64 + 7, -(2**70 + 11), 2**61 - 1]


def _round_trip(sketch, fresh):
    """serialize -> deserialize into a fresh instance -> compare state."""
    blob = serialize_sketch(sketch)
    clone = deserialize_sketch(fresh, blob)
    assert clone.state_ints() == sketch.state_ints()
    return clone


class TestFromStateInts:
    """from_state_ints is the exact inverse of state_ints for every
    sketch class, bigint cells included."""

    def test_one_sparse_detector(self):
        detector = OneSparseDetector(1000, seed=1)
        for i, delta in enumerate(_EXTREME_DELTAS):
            detector.update(i * 99, delta)
        clone = _round_trip(detector, OneSparseDetector(1000, seed=1))
        assert clone.decode() == detector.decode()

    def test_sparse_recovery_including_bigints(self):
        sketch = SparseRecoverySketch(1000, 8, seed=2)
        for i, delta in enumerate(_EXTREME_DELTAS):
            sketch.update(i * 101, delta)
        clone = _round_trip(sketch, SparseRecoverySketch(1000, 8, seed=2))
        assert clone.decode() == sketch.decode()

    def test_count_sketch(self):
        sketch = CountSketch(1000, 4, seed=3)
        for i, delta in enumerate(_EXTREME_DELTAS):
            sketch.update(i * 37, delta)
        clone = _round_trip(sketch, CountSketch(1000, 4, seed=3))
        assert clone.estimate(0) == sketch.estimate(0)

    def test_distinct_elements(self):
        sketch = DistinctElementsSketch(1000, seed=4)
        for i, delta in enumerate(_EXTREME_DELTAS):
            sketch.update(i * 53, delta)
        clone = _round_trip(sketch, DistinctElementsSketch(1000, seed=4))
        assert clone.estimate() == sketch.estimate()

    def test_l0_sampler(self):
        sampler = L0Sampler(1000, seed=5)
        for i, delta in enumerate(_EXTREME_DELTAS):
            sampler.update(i * 71, delta)
        clone = _round_trip(sampler, L0Sampler(1000, seed=5))
        assert clone.sample() == sampler.sample()

    def test_linear_hash_table(self):
        table = LinearHashTable(key_domain=32, payload_len=3, capacity=4, seed=6)
        table.add_payload(7, [2**61 - 1, -(2**64), 5])
        table.add_payload(21, [1, 0, -(2**61)])
        clone = _round_trip(table, LinearHashTable(32, 3, 4, seed=6))
        assert clone.decode() == table.decode()

    def test_neighborhood_hash_table(self):
        table = NeighborhoodHashTable(32, 4, seed=7)
        table.add_neighbor(key=3, neighbor=11, delta=1)
        table.add_neighbor(key=9, neighbor=27, delta=1)
        clone = _round_trip(table, NeighborhoodHashTable(32, 4, seed=7))
        decoded, expected = clone.decode_neighbors(), table.decode_neighbors()
        assert decoded is not None and expected is not None
        assert decoded.keys() == expected.keys()

    def test_agm_sketch(self):
        sketch = AgmSketch(12, seed=8)
        sketch.update(0, 5, 1)
        sketch.update(5, 11, 1)
        sketch.update(0, 5, -1)
        clone = _round_trip(sketch, AgmSketch(12, seed=8))
        assert clone.spanning_forest() == sketch.spanning_forest()

    @settings(max_examples=40, deadline=None)
    @given(
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=499),
                st.integers(min_value=-(2**70), max_value=2**70),
            ),
            max_size=30,
        )
    )
    def test_round_trip_property_sparse_recovery(self, updates):
        sketch = SparseRecoverySketch(500, 4, seed="prop")
        for index, delta in updates:
            sketch.update(index, delta)
        state = sketch.state_ints()
        assert unpack_ints(pack_ints(state)) == state
        clone = SparseRecoverySketch(500, 4, seed="prop").from_state_ints(state)
        assert clone.state_ints() == state

    @settings(max_examples=25, deadline=None)
    @given(
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=199),
                st.integers(min_value=-(2**70), max_value=2**70),
            ),
            max_size=20,
        )
    )
    def test_round_trip_property_l0_sampler(self, updates):
        sampler = L0Sampler(200, seed="prop")
        for index, delta in updates:
            sampler.update(index, delta)
        blob = serialize_sketch(sampler)
        clone = deserialize_sketch(L0Sampler(200, seed="prop"), blob)
        assert clone.state_ints() == sampler.state_ints()
