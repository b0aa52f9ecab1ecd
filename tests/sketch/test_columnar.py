"""Columnar sketch stacks: bit-identity against the per-sketch engine.

The columnar layer (:mod:`repro.sketch.columnar`) stores many
same-shaped sketches as one 2-D array and promises state *bit-identical*
to the standalone sketch classes under every path combination: scalar
vs. scattered updates, aggregated chunks, clone, spill, sharded
serialization round trips, and checkpoint/restore.  These tests pin that
promise for the raw stacks and for the three algorithm-level consumers
(AGM connectivity, the two-pass spanner, the streaming sparsifier —
weighted and unweighted).  Longer-stream (10^5-token) identity is
asserted by ``benchmarks/bench_columnar.py``, which runs both engines
anyway to measure the speedup it gates.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.sketch.columnar as columnar_module
from repro.agm.connectivity import ConnectivityChecker
from repro.agm.spanning_forest import AgmSketch
from repro.core.parameters import SparsifierParams
from repro.core.sparsify import StreamingSparsifier, StreamingWeightedSparsifier
from repro.core.two_pass_spanner import TwoPassSpannerBuilder
from repro.graph.vertex_space import VertexSpace
from repro.service import GraphSession, load_session
from repro.sketch.columnar import L0SamplerStack, SketchStack
from repro.sketch.hashing import MERSENNE_61
from repro.sketch.l0sampler import L0Sampler
from repro.sketch.sparse_recovery import SparseRecoverySketch
from repro.stream.batching import aggregate_updates, updates_to_arrays
from repro.stream.generators import mixed_workload_stream, power_law_universe_stream
from repro.util.rng import rng_from_seed

SLIM = SparsifierParams(estimate_levels=2, sampling_levels=2, sampling_rounds_factor=0.01)


def random_incidences(seed, count, num_rows, domain, deltas=(-2, -1, 1, 3)):
    rng = rng_from_seed(seed, "columnar-test")
    rows = np.array([rng.randrange(num_rows) for _ in range(count)], dtype=np.int64)
    idxs = np.array([rng.randrange(domain) for _ in range(count)], dtype=np.int64)
    ds = np.array([rng.choice(deltas) for _ in range(count)], dtype=np.int64)
    return rows, idxs, ds


class TestSketchStack:
    def test_shared_seed_scatter_matches_scalar_sketches(self):
        num_rows, domain = 6, 300
        stack = SketchStack(num_rows, domain, 4, "stack-shared", rows=3)
        references = [
            SparseRecoverySketch(domain, 4, "stack-shared", rows=3)
            for _ in range(num_rows)
        ]
        rows, idxs, ds = random_incidences("shared", 4000, num_rows, domain)
        stack.scatter(rows, idxs, ds)
        for row, index, delta in zip(rows, idxs, ds):
            references[row].update(int(index), int(delta))
        for row in range(num_rows):
            assert stack.row_state_ints(row) == references[row].state_ints()
            assert stack.row_sketch(row).decode() == references[row].decode()

    def test_update_row_matches_scatter(self):
        num_rows, domain = 4, 200
        scalar = SketchStack(num_rows, domain, 4, "paths", rows=3)
        batched = SketchStack(num_rows, domain, 4, "paths", rows=3)
        rows, idxs, ds = random_incidences("paths", 1500, num_rows, domain)
        batched.scatter(rows, idxs, ds)
        for row, index, delta in zip(rows, idxs, ds):
            scalar.update_row(int(row), int(index), int(delta))
        for row in range(num_rows):
            assert scalar.row_state_ints(row) == batched.row_state_ints(row)

    def test_per_row_seeds_match_scalar_sketches(self):
        # Per-sketch seeds are one-row seed groups (the spanner's cut
        # sketches); a seed list is refused rather than hashed as one name.
        num_sketches, domain = 5, 250
        seeds = [str(("root", r)) for r in range(num_sketches)]
        with pytest.raises(TypeError, match="group_seeds="):
            SketchStack(num_sketches, domain, 6, seeds, rows=3)
        with pytest.raises(TypeError, match="group_seeds="):
            SketchStack(num_sketches, domain, 6, tuple(seeds), rows=3)
        stack = SketchStack(1, domain, 6, None, rows=3, group_seeds=seeds)
        references = [SparseRecoverySketch(domain, 6, seed, rows=3) for seed in seeds]
        groups, idxs, ds = random_incidences("multi", 3000, num_sketches, domain)
        stack.scatter(np.zeros_like(groups), idxs, ds, groups)
        for group, index, delta in zip(groups, idxs, ds):
            references[group].update(int(index), int(delta))
        for group in range(num_sketches):
            assert stack.row_state_ints(0, group) == references[group].state_ints()
            assert stack.row_sketch(0, group).decode() == references[group].decode()

    def test_rows_sum_equals_pairwise_combine(self):
        num_rows, domain = 5, 150
        stack = SketchStack(num_rows, domain, 4, "sum", rows=3)
        rows, idxs, ds = random_incidences("sum", 2000, num_rows, domain)
        stack.scatter(rows, idxs, ds)
        combined = stack.row_sketch(1)
        combined.combine(stack.row_sketch(3))
        combined.combine(stack.row_sketch(4))
        assert stack.rows_sum_sketch([1, 3, 4]).state_ints() == combined.state_ints()

    def test_clone_is_isolated(self):
        stack = SketchStack(3, 100, 4, "clone", rows=3)
        stack.update_row(0, 7, 1)
        clone = stack.clone()
        stack.update_row(0, 8, 1)
        clone.update_row(1, 9, -1)
        assert stack.row_state_ints(1) != clone.row_state_ints(1)
        fresh = SketchStack(3, 100, 4, "clone", rows=3)
        fresh.update_row(0, 7, 1)
        fresh.update_row(1, 9, -1)
        assert clone.row_state_ints(0) == fresh.row_state_ints(0)
        assert clone.row_state_ints(1) == fresh.row_state_ints(1)

    def test_combine_with_sign_cancels(self):
        stack = SketchStack(3, 100, 4, "cancel", rows=3)
        rows, idxs, ds = random_incidences("cancel", 500, 3, 100)
        stack.scatter(rows, idxs, ds)
        clone = stack.clone()
        clone.combine(stack, sign=-1)
        for row in range(3):
            assert clone.is_row_zero(row)

    def test_huge_delta_batch_spills_instead_of_wrapping(self):
        """A batch whose |delta| sum overflows int64 must take the exact
        spill path, never corrupt cells via wrapped admission math."""
        stack = SketchStack(2, 50, 4, "huge-delta", rows=3)
        references = [
            SparseRecoverySketch(50, 4, "huge-delta", rows=3) for _ in range(2)
        ]
        rows = np.array([0, 0, 1], dtype=np.int64)
        idxs = np.array([2, 3, 2], dtype=np.int64)
        ds = np.array([1 << 62, 1 << 62, -(1 << 62)], dtype=np.int64)
        stack.scatter(rows, idxs, ds)
        for row, index, delta in zip(rows, idxs, ds):
            references[row].update(int(index), int(delta))
        assert stack.is_spilled()
        for row in range(2):
            assert stack.row_state_ints(row) == references[row].state_ints()

    def test_load_row_state_round_trip(self):
        stack = SketchStack(3, 100, 4, "load", rows=3)
        rows, idxs, ds = random_incidences("load", 700, 3, 100)
        stack.scatter(rows, idxs, ds)
        other = SketchStack(3, 100, 4, "load", rows=3)
        for row in range(3):
            other.load_row_state(row, stack.row_state_ints(row))
            assert other.row_state_ints(row) == stack.row_state_ints(row)

    def test_spilled_digest_carries_cells_past_int64(self):
        # The spill exists for cells int64 cannot hold; its digest must
        # hash them exactly, in key order, skipping rows that net to zero.
        def spilled(order):
            stack = SketchStack(4, 50, 4, "wide-digest", rows=3)
            for row, index, delta in order:
                stack.update_row(row, index, delta)
            assert stack.is_spilled()
            return _digest(stack)

        updates = [(1, 3, 1 << 62), (1, 3, 1 << 62), (2, 5, 1 << 62), (0, 4, 7), (0, 4, -7)]
        assert spilled(updates) == spilled(updates[::-1][:3] + updates[:2][::-1])
        assert spilled(updates) != spilled(updates[:2] + [(2, 5, 1 << 61)])

    @pytest.mark.parametrize("touched", [False, True])
    def test_grouped_rows_out_of_range_raise(self, touched):
        # Row num_rows of group 0 would be row 0 of group 1: every reader
        # must refuse it rather than decode the next group's state, whether
        # or not the touched-cells store holds any cells yet.
        stack = SketchStack(3, 100, 4, None, rows=3, group_seeds=["g0", "g1"])
        if touched:
            stack.scatter([0, 1], [5, 7], [1, 2], [1, 1])
        readers = [
            lambda: stack.row_sketch(3, 0),
            lambda: stack.row_state_ints(3, 0),
            lambda: stack.is_row_zero(3, 0),
            lambda: stack.rows_sum_sketches([0, 3], [0]),
            lambda: stack.rows_sum_sketches([-1], [1]),
            lambda: stack.rows_sum_sketches([0], [2]),
            lambda: stack.update_row(3, 5, 1, group=0),
            lambda: stack.load_row_state(3, [0] * stack.row_state_len(), group=0),
        ]
        for read in readers:
            with pytest.raises(IndexError):
                read()
        samplers = L0SamplerStack(3, 100, ["f0", "f1"])
        if touched:
            samplers.scatter([0], [5], [1])
        with pytest.raises(IndexError):
            samplers.row_sampler(3, family=0)
        with pytest.raises(IndexError):
            samplers.row_state_ints(3, family=0)

    def test_spill_preserves_state_and_interop(self, monkeypatch):
        """Past the int64-safety bound the stack falls back to exact
        per-row sketches; every contract keeps working unchanged.

        The bound is tightened to actual cell magnitudes before
        spilling, so forcing the fallback needs deltas that genuinely
        accumulate past the (patched-down) guard — not just a long
        stream of small updates.
        """
        monkeypatch.setattr(columnar_module, "_INT64_SAFE_BOUND", 3_000)
        num_rows, domain = 3, 60
        stack = SketchStack(num_rows, domain, 4, "spill", rows=3)
        references = [
            SparseRecoverySketch(domain, 4, "spill", rows=3) for _ in range(num_rows)
        ]
        rng = rng_from_seed("spill-ops", 0)
        for step in range(400):
            row, index = rng.randrange(num_rows), rng.randrange(domain)
            delta = rng.choice([-40, 40])
            stack.update_row(row, index, delta)
            references[row].update(index, delta)
        assert stack.is_spilled()
        for row in range(num_rows):
            assert stack.row_state_ints(row) == references[row].state_ints()
        rows, idxs, ds = random_incidences("spill-batch", 300, num_rows, domain)
        stack.scatter(rows, idxs, ds)
        for row, index, delta in zip(rows, idxs, ds):
            references[row].update(int(index), int(delta))
        for row in range(num_rows):
            assert stack.row_state_ints(row) == references[row].state_ints()
        # combine columnar into spilled, clone, and sum rows
        fresh = SketchStack(num_rows, domain, 4, "spill", rows=3)
        fresh.update_row(2, 5, 7)
        stack.combine(fresh)
        references[2].update(5, 7)
        clone = stack.clone()
        for row in range(num_rows):
            assert clone.row_state_ints(row) == references[row].state_ints()
        summed = references[0].copy()
        summed.combine(references[1])
        assert stack.rows_sum_sketch([0, 1]).state_ints() == summed.state_ints()

        # The seed-grouped store spills as a whole, from a fused batch,
        # and keeps every group's rows bit-identical to standalone
        # sketches of that group's seed.
        seeds = ["spill-g0", "spill-g1", "spill-g2"]
        grouped = SketchStack(num_rows, domain, 4, None, rows=3, group_seeds=seeds)
        group_refs = {
            (g, row): SparseRecoverySketch(domain, 4, seeds[g], rows=3)
            for g in range(3) for row in range(num_rows)
        }
        for step in range(6):
            rows, idxs, ds = random_incidences(
                ("grouped-spill", step), 120, num_rows, domain, deltas=(-40, 40)
            )
            groups = np.array([(7 * t + step) % 3 for t in range(rows.size)], dtype=np.int64)
            grouped.scatter(rows, idxs, ds, groups)
            for g, row, index, delta in zip(groups, rows, idxs, ds):
                group_refs[(int(g), int(row))].update(int(index), int(delta))
        assert grouped.is_spilled()

        def assert_grouped(target):
            for (g, row), reference in group_refs.items():
                assert target.row_state_ints(row, g) == reference.state_ints()

        assert_grouped(grouped)
        fresh = SketchStack(num_rows, domain, 4, None, rows=3, group_seeds=seeds)
        fresh.update_row(1, 9, 3, group=2)
        grouped.combine(fresh)
        group_refs[(2, 1)].update(9, 3)
        assert_grouped(grouped.clone())
        summed = group_refs[(1, 0)].copy()
        summed.combine(group_refs[(1, 2)])
        assert grouped.rows_sum_sketches([0, 2], [1])[0].state_ints() == summed.state_ints()
        # The sparse wire of the spilled store loads into a columnar one.
        monkeypatch.setattr(columnar_module, "_INT64_SAFE_BOUND", 1 << 61)
        restored = SketchStack(num_rows, domain, 4, None, rows=3, group_seeds=seeds)
        restored.load_sparse_state(grouped.sparse_state_ints())
        assert not restored.is_spilled()
        assert _listed(restored.sparse_state_ints()) == grouped.sparse_state_ints()
        assert_grouped(restored)


def _digest(stack):
    hasher = hashlib.sha256()
    stack.state_digest(hasher)
    return hasher.hexdigest()


def _grouped_stack():
    return SketchStack(6, 80, 4, None, rows=3, group_seeds=["w0", "w1", "w2"])


def _fed_stack():
    stack = _grouped_stack()
    rows, idxs, ds = random_incidences("wire-decode", 400, 6, 80)
    groups = np.arange(rows.size, dtype=np.int64) % 3
    stack.scatter(rows, idxs, ds, groups)
    return stack


def _listed(wire):
    """A wire as a list of Python ints (stacks ship ``int64`` arrays)."""
    return wire.tolist() if isinstance(wire, np.ndarray) else list(wire)


def _state(stack):
    """Everything a load may change, comparably."""
    return (
        _listed(stack.sparse_state_ints()),
        _digest(stack),
        stack.resident_rows(),
        stack.cell_bound,
        stack.is_spilled(),
    )


def _outcome(target, wire):
    """Load ``wire`` into ``target``: (cursor or exception, state seen)."""
    try:
        result = target.load_sparse_state(wire)
    except Exception as error:  # noqa: BLE001 - compared, not swallowed
        result = (type(error), str(error))
    return result, target


class TestSparseWireDecode:
    """:meth:`SketchStack.load_sparse_state` reads the nonzero-cell wire
    (per group ``[count, (key, total, index sum, fingerprint) ...]``,
    ``key = row * cells + cell``): an ``int64`` array and a list of the
    same ints load alike, a valid block overwrites the stack and interns
    exactly the rows it names, and a malformed block raises
    ``ValueError`` with the target unchanged."""

    @staticmethod
    def _both(make, wire):
        """Load ``wire`` as a list and, when it fits, as an ``int64``
        array: the same cursor or error and the same state."""
        listed = _outcome(make(), _listed(wire))
        try:
            array = np.array(_listed(wire), dtype=np.int64)
        except OverflowError:
            return listed[1]
        arrayed = _outcome(make(), array)
        assert listed[0] == arrayed[0]
        assert _state(listed[1]) == _state(arrayed[1])
        if not listed[1].is_spilled():
            assert listed[1]._slot_keys == arrayed[1]._slot_keys
        return listed[1]

    @staticmethod
    def _refused(make, wire, match=None):
        """``wire`` raises ``ValueError`` and leaves the target as it was."""
        for form in (_listed(wire), wire):
            target = make()
            before = _state(target)
            with pytest.raises(ValueError, match=match):
                target.load_sparse_state(form)
            assert _state(target) == before

    @staticmethod
    def _record(wire, group, position):
        """Offset of record ``position`` of ``group``'s block in ``wire``."""
        cursor = 0
        for _ in range(group):
            cursor += 1 + 4 * int(wire[cursor])
        return cursor + 1 + 4 * position

    @staticmethod
    def _preloaded():
        target = _grouped_stack()
        target.update_row(5, 9, 4, group=0)
        target.update_row(1, 9, 4, group=2)
        return target

    def test_fast_path_round_trips(self):
        source = _fed_stack()
        wire = source.sparse_state_ints()
        assert isinstance(wire, np.ndarray) and wire.dtype == np.int64
        for make in (_grouped_stack, self._preloaded):
            target = self._both(make, wire)
            assert target.load_sparse_state(wire) == len(wire)
            assert _listed(target.sparse_state_ints()) == _listed(wire)
            assert _digest(target) == _digest(source)
            # The load overwrites: rows absent from the wire are gone.
            assert target.resident_rows() == int(source.nonzero_rows().sum())
            for group in range(3):
                for row in range(6):
                    assert target.row_state_ints(row, group) == source.row_state_ints(row, group)
        # Keys ascend per group; every record is a nonzero cell.
        cursor = 0
        for group in range(3):
            count = int(wire[cursor])
            records = wire[cursor + 1 : cursor + 1 + 4 * count].reshape(-1, 4)
            assert np.all(np.diff(records[:, 0]) > 0)
            assert np.all(records[:, 1:].any(axis=1))
            cursor += 1 + 4 * count
        assert cursor == len(wire)

    def test_spilled_stack(self):
        def spilled():
            stack = _fed_stack()
            stack.update_row(5, 3, 1 << 62, group=1)
            stack.update_row(2, 7, -(1 << 61) - 9, group=2)
            assert stack.is_spilled()
            return stack

        # A spilled stack's cells leave int64: its wire is exact ints,
        # and it round-trips into a spilled stack, cell for cell.
        source = spilled()
        wire = source.sparse_state_ints()
        assert isinstance(wire, list) and max(map(abs, wire)) >= 1 << 62
        target = self._both(_grouped_stack, wire)
        assert target.is_spilled()
        assert target.sparse_state_ints() == wire
        for group in range(3):
            for row in range(6):
                assert target.row_state_ints(row, group) == source.row_state_ints(row, group)
        # A small wire overwrites a spilled target back onto the columns.
        small = _fed_stack().sparse_state_ints()
        overwritten = self._both(spilled, small)
        assert not overwritten.is_spilled()
        assert _listed(overwritten.sparse_state_ints()) == _listed(small)

    @pytest.mark.parametrize("plane", [0, 1])
    def test_counter_at_the_spill_bound(self, plane):
        wire = _listed(_fed_stack().sparse_state_ints())
        wire[self._record(wire, 1, 0) + 1 + plane] = -(1 << 61)
        loaded = self._both(_grouped_stack, wire)
        assert loaded.is_spilled()
        assert loaded.sparse_state_ints() == wire

    def test_values_past_int64(self):
        wire = _listed(_fed_stack().sparse_state_ints())
        at = self._record(wire, 2, 1)
        for fingerprint in (MERSENNE_61, MERSENNE_61 + 5, -1, 2**70):
            bad = list(wire)
            bad[at + 3] = fingerprint
            self._refused(_grouped_stack, bad, "fingerprint")
        bad = list(wire)
        bad[at] = 2**70
        self._refused(_grouped_stack, bad, "key")
        for total in (2**70 + 3, -(2**63) - 1):
            exact = list(wire)
            exact[at + 1] = total
            loaded = self._both(_grouped_stack, exact)
            assert loaded.is_spilled()
            assert loaded.sparse_state_ints() == exact

    @pytest.mark.parametrize("swap", ["reversed", "repeated"])
    def test_rows_out_of_order_or_repeated(self, swap):
        wire = _listed(_fed_stack().sparse_state_ints())
        first, second = self._record(wire, 0, 0), self._record(wire, 0, 1)
        if swap == "reversed":
            wire[first], wire[second] = wire[second], wire[first]
        else:
            wire[second] = wire[first]
        self._refused(_grouped_stack, wire, "strictly increase")
        self._refused(self._preloaded, wire, "strictly increase")

    @pytest.mark.parametrize("row_id", [-1, 6])
    def test_row_out_of_range_raises(self, row_id):
        # First or last in its block, so the keys still ascend: a key
        # past either end would alias a cell of the neighbouring group.
        stack = _fed_stack()
        wire = _listed(stack.sparse_state_ints())
        last = wire[self._record(wire, 1, 0) - 1] - 1
        at = self._record(wire, 1, 0 if row_id < 0 else last)
        wire[at] = row_id * stack.cells
        self._refused(_grouped_stack, wire, "outside")

    def test_all_zero_rows_are_not_interned(self):
        # Row 2 of group 0 nets to zero across two scatters: it stays
        # resident in the source but is not on the wire, so a load does
        # not intern it.
        stack = _grouped_stack()
        stack.scatter([0, 2, 4], [3, 5, 7], [1, -2, 1], [0, 0, 1])
        stack.scatter([2], [5], [2], [0])
        assert stack.touched_row_ids(0) == [0, 2]
        assert stack.nonzero_rows().tolist() == [1, 1, 0]
        wire = stack.sparse_state_ints()
        loaded = self._both(_grouped_stack, wire)
        assert loaded.touched_row_ids(0) == [0]
        assert loaded.touched_row_ids(1) == [4]
        assert _digest(loaded) == _digest(stack)
        # An all-zero cell on the wire is refused.
        padded = _listed(wire)
        end = 1 + 4 * padded[0]
        padded[0] += 1
        padded[end:end] = [2 * stack.cells, 0, 0, 0]
        self._refused(_grouped_stack, padded, "all-zero")

    @pytest.mark.parametrize(
        "cut,error", [(0, ValueError), (1, ValueError), (7, ValueError)]
    )
    def test_short_block_raises(self, cut, error):
        wire = _listed(_fed_stack().sparse_state_ints())
        short = wire[: self._record(wire, 1, 1) + cut]
        for make in (_grouped_stack, self._preloaded):
            self._refused(make, short)
        with pytest.raises(error, match="overruns|ends before"):
            _grouped_stack().load_sparse_state(short)

    def test_count_overruns_the_wire(self):
        wire = _listed(_fed_stack().sparse_state_ints())
        for count in (len(wire), -1):
            bad = list(wire)
            bad[self._record(wire, 1, 0) - 1] = count
            self._refused(_grouped_stack, bad, "overruns")

    def test_group_count_is_wrong(self):
        # A 3-group wire is short for a 4-group stack; a 4-group wire
        # leaves ints over for a 3-group sketch's framing.
        wire = _fed_stack().sparse_state_ints()
        self._refused(
            lambda: SketchStack(6, 80, 4, None, rows=3, group_seeds=["w0", "w1", "w2", "w3"]),
            wire,
            "ends before",
        )
        wider = AgmSketch(8, "group-count", rounds=3)
        wider.update_batch(np.array([0, 1, 2]), np.array([1, 2, 5]), np.array([1, 1, 1]))
        target = AgmSketch(8, "group-count", rounds=2)
        target.update_batch(np.array([3]), np.array([4]), np.array([1]))
        before = _listed(target.state_ints())
        with pytest.raises(ValueError, match="state ints"):
            target.from_state_ints(wider.state_ints())
        assert _listed(target.state_ints()) == before


class TestBatchIntegerCoercion:
    """Float input must raise, never truncate: ``int64`` casting would
    turn a 1.9 delta into 1 and a 0.5 delta into an empty sketch."""

    @pytest.mark.parametrize("entry", ["sketch_stack", "l0_stack", "agm"])
    @pytest.mark.parametrize("bad", ["delta", "row", "index"])
    def test_float_batches_raise(self, entry, bad):
        rows = [0.7] if bad == "row" else [0]
        indices = [3.2] if bad == "index" else [3]
        deltas = [1.9] if bad == "delta" else [1]
        with pytest.raises(TypeError):
            if entry == "sketch_stack":
                SketchStack(4, 100, 4, "x").scatter(rows, indices, deltas)
            elif entry == "l0_stack":
                L0SamplerStack(4, 100, "x").scatter(rows, indices, deltas)
            else:
                us = [0.5] * 60 if bad == "row" else [0] * 60
                vs = [2.5] * 60 if bad == "index" else [1] * 60
                ds = [0.5] * 60 if bad == "delta" else [1] * 60
                AgmSketch(10, "x").update_batch(us, vs, ds)


class TestL0SamplerStack:
    def test_matches_scalar_samplers_and_sum(self):
        num_rows, domain = 5, 400
        stack = L0SamplerStack(num_rows, domain, "l0-stack")
        references = [L0Sampler(domain, "l0-stack") for _ in range(num_rows)]
        rows, idxs, ds = random_incidences("l0", 4000, num_rows, domain)
        stack.scatter(rows, idxs, ds)
        for row, index, delta in zip(rows, idxs, ds):
            references[row].update(int(index), int(delta))
        for row in range(num_rows):
            assert stack.row_state_ints(row) == references[row].state_ints()
            assert stack.row_sampler(row).sample() == references[row].sample()
        combined = references[0].copy()
        combined.combine(references[2])
        assert stack.rows_sum_sampler([0, 2]).state_ints() == combined.state_ints()

    def test_scalar_path_and_clone(self):
        stack = L0SamplerStack(3, 128, "l0-scalar")
        reference = L0Sampler(128, "l0-scalar")
        for index, delta in [(5, 1), (17, -2), (5, 1), (99, 4)]:
            stack.update_row(1, index, delta)
            reference.update(index, delta)
        clone = stack.clone()
        stack.update_row(1, 64, 1)
        assert clone.row_state_ints(1) == reference.state_ints()
        assert stack.row_state_ints(1) != reference.state_ints()


class TestBatchingHelpers:
    def test_updates_to_arrays(self):
        stream = mixed_workload_stream(8, 200, "arrays")
        updates = list(stream)
        us, vs, signs = updates_to_arrays(updates)
        assert us.tolist() == [u.u for u in updates]
        assert vs.tolist() == [u.v for u in updates]
        assert signs.tolist() == [u.sign for u in updates]

    def test_aggregate_cancellation(self):
        us = np.array([0, 0, 1, 0], dtype=np.int64)
        vs = np.array([1, 1, 2, 2], dtype=np.int64)
        ds = np.array([1, -1, 1, 1], dtype=np.int64)
        lows, highs, pairs, net = aggregate_updates(us, vs, ds, 4)
        assert list(zip(lows.tolist(), highs.tolist(), net.tolist())) == [
            (0, 2, 1),
            (1, 2, 1),
        ]
        lows, highs, pairs, net = aggregate_updates(us, vs, ds, 4, keep_zero=True)
        assert list(zip(lows.tolist(), highs.tolist(), net.tolist())) == [
            (0, 1, 0),
            (0, 2, 1),
            (1, 2, 1),
        ]
        assert pairs.tolist() == [1, 2, 6]


def _shard_states(algorithm, pass_index=0):
    return list(algorithm.shard_state_ints(pass_index))


class TestAgmColumnarIdentity:
    def test_batched_equals_scalar_equals_standalone(self):
        n, length = 24, 3000
        stream = mixed_workload_stream(n, length, "agm-identity")
        scalar = ConnectivityChecker(n, "agm-id")
        batched = ConnectivityChecker(n, "agm-id")
        for update in stream:
            scalar.process(update, 0)
        for chunk in stream.iter_batches(512):
            batched.process_batch(chunk, 0)
        assert _shard_states(scalar) == _shard_states(batched)
        assert scalar.finalize() == batched.finalize()
        # Tiny batches take the same columnar path (no scalar cutoff).
        tokens = list(stream)
        for size in (1, 47, 48, 49):
            scalar = ConnectivityChecker(n, "agm-id")
            batched = ConnectivityChecker(n, "agm-id")
            for update in tokens[: 3 * size]:
                scalar.process(update, 0)
            for start in range(0, 3 * size, size):
                batched.process_batch(tokens[start : start + size], 0)
            assert _shard_states(scalar) == _shard_states(batched), size

    def test_sketch_rows_equal_standalone_samplers(self):
        """The true cross-engine probe: columnar rows decode through (and
        equal) freshly built standalone per-vertex samplers."""
        n = 10
        sketch = AgmSketch(n, seed="standalone", rounds=3)
        stream = mixed_workload_stream(n, 600, "agm-standalone")
        us, vs, signs = updates_to_arrays(list(stream))
        sketch.update_batch(us, vs, signs)
        from repro.util.rng import derive_seed

        domain = n * n
        for r in range(3):
            seed = derive_seed(sketch._seed_key, "round", r)
            references = [L0Sampler(domain, seed) for _ in range(n)]
            for update, sign in zip(stream, signs):
                low, high = update.u, update.v
                coordinate = low * n + high
                references[low].update(coordinate, int(sign))
                references[high].update(coordinate, -int(sign))
            for vertex in range(n):
                assert (
                    sketch.sampler_view(vertex, r).state_ints()
                    == references[vertex].state_ints()
                )


def _feed(sketch, tokens, chunk):
    for start in range(0, len(tokens), chunk):
        sketch.update_batch(*updates_to_arrays(tokens[start : start + chunk]))


def _wire_sha256(sketch):
    return hashlib.sha256(",".join(map(str, sketch.state_ints())).encode()).hexdigest()


def _agm_spilled(sketch):
    return sketch._samplers._store.is_spilled()


class TestAgmWirePins:
    """The AGM wire is a checkpoint and shard format: its bytes are pinned
    as sha256 constants, so any change to ``state_ints`` (order, row ids,
    cell layout) fails here rather than in a restore."""

    def test_dense_churn_wire_is_pinned(self):
        sketch = AgmSketch(16, "wire-pin-dense")
        _feed(sketch, list(mixed_workload_stream(16, 4000, "wire-pin-churn")), 512)
        assert _wire_sha256(sketch) == (
            "5465af1d0c92a065646fef26ca392fc8b7e5aa7beff2b0e7f46e9f76fd7f5bad"
        )

    def test_lazy_powerlaw_wire_is_pinned(self):
        sketch = AgmSketch(VertexSpace.sparse(10**7), "wire-pin-lazy", rounds=6)
        tokens = list(power_law_universe_stream(
            10**7, 200, 3000, "wire-pin-powerlaw", exponent=1.2
        ))
        _feed(sketch, tokens, 500)
        assert _wire_sha256(sketch) == (
            "54b22003064d4ab0673b71e2f83e0f9861ef03cd655ca292b1fdc8d7e33d7e81"
        )

    def test_powerlaw_500_stream_never_spills(self):
        """Coordinates near 10^14 make every chunk's single-cell headroom
        large; the exactness guard must still admit a powerlaw-500-shaped
        stream (10^7 ids, 500 touched, 1,000-token chunks, 11 rounds)
        without falling back to scalar sketches."""
        sketch = AgmSketch(VertexSpace.sparse(10**7), "spill-pin", rounds=11)
        tokens = list(power_law_universe_stream(
            10**7, 500, 15_000, "spill-pin/stream", exponent=1.2
        ))
        _feed(sketch, tokens, 1000)
        assert not _agm_spilled(sketch)


def _sha256(values):
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


def _spanner_pins(builder, tokens, chunk):
    """sha256 of both passes' shard wires and of the sorted spanner edges,
    after feeding ``tokens`` in ``chunk``-token batches (a short last
    batch rides pass 0's scalar token loop and pass 1's store)."""
    for pass_index in range(2):
        for start in range(0, len(tokens), chunk):
            builder.process_batch(tokens[start : start + chunk], pass_index)
        builder.end_pass(pass_index)
    wires = [_sha256(builder.shard_state_ints(p)) for p in range(2)]
    edges = sorted(builder.finalize().spanner.edge_set())
    return wires + [_sha256(v for edge in edges for v in edge)]


class TestSpannerWirePins:
    """Both spanner passes' shard wires are checkpoint and shard formats,
    and the spanner is the slot's answer: their bytes are pinned as
    sha256 constants (pass-0 wire, pass-1 wire, sorted edge list), so a
    storage change that moves any cell, row id or edge fails here."""

    def test_dense_n32_k2_is_pinned(self):
        tokens = list(mixed_workload_stream(32, 3020, "spanner-pin-32"))
        assert _spanner_pins(TwoPassSpannerBuilder(32, 2, "spanner-pin"), tokens, 500) == [
            "2f888e097098829e584fd94e74080c8eea1b585ec85edbd27e91030018c537a0",
            "a6827a09af759fc50d41683a3c910f2d5fc32dd4481d884de6278dd0cbbcfcdd",
            "0e145fda1a73c9f07c8eb91f3c1b6a57bdd8011da3dde8cd5e5302675deb2efb",
        ]

    def test_dense_n16_k3_is_pinned(self):
        tokens = list(mixed_workload_stream(16, 2020, "spanner-pin-16"))
        assert _spanner_pins(TwoPassSpannerBuilder(16, 3, "spanner-pin"), tokens, 400) == [
            "3722a3e5be21cf2d66d4455f5478b02ebd6184fbf68fe04f57e38029c28398c7",
            "d3cc07814b815c71e6f6e3e2a8ae3e454ad7624d05dad07c646be304269bb67d",
            "91c440b90582de03437580d05c92ca1f54f715589106ddcd43aff54fecfb8827",
        ]

    def test_lazy_powerlaw_is_pinned(self):
        # This seed samples a popular vertex into C_1, so ~150 rows of the
        # lazy cluster store and two cut-sketch budgets carry state.
        tokens = list(power_law_universe_stream(
            10**7, 200, 1520, "spanner-pin-powerlaw", exponent=1.2
        ))
        builder = TwoPassSpannerBuilder(VertexSpace.sparse(10**7), 3, "spanner-pin-17")
        assert _spanner_pins(builder, tokens, 500) == [
            "bc45f520b23ccf2ff6f177554d4f6f09ff93f8c457007a40ce40b6b095bcc52e",
            "4472912028be4c48176364437850d1c293ce60222dda484bc45aaae590c80c1b",
            "c344a8551ce4e12c10f171a2e440cabd0abfafcbac0aa257336f31d543442945",
        ]


class TestSpannerColumnarIdentity:
    def test_both_passes_bit_identical(self):
        n, length = 24, 3000
        stream = mixed_workload_stream(n, length, "spanner-identity")
        scalar = TwoPassSpannerBuilder(n, 2, "spanner-id")
        batched = TwoPassSpannerBuilder(n, 2, "spanner-id")
        for pass_index in range(2):
            for update in stream:
                scalar.process(update, pass_index)
            scalar.end_pass(pass_index)
        for pass_index in range(2):
            for chunk in stream.iter_batches(512):
                batched.process_batch(chunk, pass_index)
            batched.end_pass(pass_index)
        assert _shard_states(scalar, 0) == _shard_states(batched, 0)
        assert _shard_states(scalar, 1) == _shard_states(batched, 1)
        assert (
            scalar.finalize().spanner.edge_set()
            == batched.finalize().spanner.edge_set()
        )

    @pytest.mark.parametrize("chunk", [1, 8, 32, 33])
    def test_small_chunks_match_scalar_path(self, chunk):
        """Pass 0 loops tokens up to 32 per chunk; pass 1 always takes the
        pass-2 store.  Both land where the scalar path does."""
        n = 16
        tokens = list(mixed_workload_stream(n, 400, "spanner-small-chunks"))
        scalar = TwoPassSpannerBuilder(n, 2, "spanner-small")
        batched = TwoPassSpannerBuilder(n, 2, "spanner-small")
        for pass_index in range(2):
            for update in tokens:
                scalar.process(update, pass_index)
            scalar.end_pass(pass_index)
            for start in range(0, len(tokens), chunk):
                batched.process_batch(tokens[start : start + chunk], pass_index)
            batched.end_pass(pass_index)
        assert _shard_states(scalar, 0) == _shard_states(batched, 0)
        assert _shard_states(scalar, 1) == _shard_states(batched, 1)
        assert (
            scalar.finalize().spanner.edge_set()
            == batched.finalize().spanner.edge_set()
        )

    def test_merge_shard_round_trip(self):
        """Shard the stream, serialize/load/merge — the reassembled state
        equals the single-instance state, across the columnar storage."""
        n, length, shards = 16, 2000, 3
        stream = mixed_workload_stream(n, length, "spanner-shards")
        updates = list(stream)
        single = TwoPassSpannerBuilder(n, 2, "shard-id")
        for chunk in stream.iter_batches(256):
            single.process_batch(chunk, 0)
        coordinator = TwoPassSpannerBuilder(n, 2, "shard-id")
        for shard in range(shards):
            worker = TwoPassSpannerBuilder(n, 2, "shard-id")
            worker.process_batch(updates[shard::shards], 0)
            shipped = worker.shard_state_ints(0)
            rebuilt = TwoPassSpannerBuilder(n, 2, "shard-id")
            rebuilt.load_shard_state_ints(0, shipped)
            assert _listed(rebuilt.shard_state_ints(0)) == _listed(shipped)
            coordinator.merge_shard(rebuilt, 0)
        assert _listed(coordinator.shard_state_ints(0)) == _listed(single.shard_state_ints(0))

    def test_clone_isolation_mid_pass(self):
        n = 12
        stream = mixed_workload_stream(n, 800, "spanner-clone")
        builder = TwoPassSpannerBuilder(n, 2, "clone-id")
        updates = list(stream)
        builder.process_batch(updates[:400], 0)
        clone = builder.clone()
        builder.process_batch(updates[400:], 0)
        reference = TwoPassSpannerBuilder(n, 2, "clone-id")
        reference.process_batch(updates[:400], 0)
        assert _listed(clone.shard_state_ints(0)) == _listed(reference.shard_state_ints(0))


class TestSparsifierColumnarIdentity:
    def test_unweighted_bit_identical(self):
        n, length = 16, 2000
        stream = mixed_workload_stream(n, length, "sparsify-identity")
        scalar = StreamingSparsifier(n, "sparsify-id", k=1, params=SLIM)
        batched = StreamingSparsifier(n, "sparsify-id", k=1, params=SLIM)
        for pass_index in range(2):
            for update in stream:
                scalar.process(update, pass_index)
            scalar.end_pass(pass_index)
            for chunk in stream.iter_batches(512):
                batched.process_batch(chunk, pass_index)
            batched.end_pass(pass_index)
        assert _shard_states(scalar, 0) == _shard_states(batched, 0)
        assert _shard_states(scalar, 1) == _shard_states(batched, 1)
        assert scalar.finalize().edge_set() == batched.finalize().edge_set()

    @pytest.mark.parametrize("chunk", [1, 8, 9, 33])
    def test_small_chunks_match_scalar_path(self, chunk):
        """Chunks of up to 8 tokens loop the per-token filters; larger
        ones evaluate every slot's membership hash in one stacked pass.
        Both land where the scalar path does."""
        n = 12
        tokens = list(mixed_workload_stream(n, 300, "sparsify-small-chunks"))
        scalar = StreamingSparsifier(n, "sparsify-small", k=1, params=SLIM)
        batched = StreamingSparsifier(n, "sparsify-small", k=1, params=SLIM)
        for pass_index in range(2):
            for update in tokens:
                scalar.process(update, pass_index)
            scalar.end_pass(pass_index)
            for start in range(0, len(tokens), chunk):
                batched.process_batch(tokens[start : start + chunk], pass_index)
            batched.end_pass(pass_index)
        assert _shard_states(scalar, 0) == _shard_states(batched, 0)
        assert _shard_states(scalar, 1) == _shard_states(batched, 1)
        assert sorted(scalar.finalize().edges()) == sorted(batched.finalize().edges())

    def test_weighted_bit_identical(self):
        n, length = 12, 1200
        stream = mixed_workload_stream(
            n, length, "sparsify-weighted", weights=(1.0, 8.0)
        )
        scalar = StreamingWeightedSparsifier(
            n, "weighted-id", 1.0, 8.0, k=1, params=SLIM
        )
        batched = StreamingWeightedSparsifier(
            n, "weighted-id", 1.0, 8.0, k=1, params=SLIM
        )
        for pass_index in range(2):
            for update in stream:
                scalar.process(update, pass_index)
            scalar.end_pass(pass_index)
            for chunk in stream.iter_batches(256):
                batched.process_batch(chunk, pass_index)
            batched.end_pass(pass_index)
        assert _shard_states(scalar, 0) == _shard_states(batched, 0)
        assert _shard_states(scalar, 1) == _shard_states(batched, 1)


class TestServiceColumnarDurability:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_checkpoint_restore_through_columnar_state(self, tmp_path, weighted):
        """Kill/restore mid-stream lands bit-identical to no crash, with
        all three algorithms' state in columnar storage."""
        n, length = 12, 1500
        bounds = (1.0, 4.0) if weighted else None
        tokens = list(
            mixed_workload_stream(
                n, length, "service-columnar", weights=bounds
            )
        )
        session = GraphSession(
            n, "service-columnar", k=2, sparsifier_k=1,
            sparsifier_params=SLIM, weight_bounds=bounds,
        )
        midpoint = length // 2
        session.ingest_batch(tokens[:midpoint])
        path = tmp_path / "mid.bin"
        session.checkpoint(path)
        session.ingest_batch(tokens[midpoint:])
        reference = session.snapshot_answers()
        reference_states = [list(a.shard_state_ints(0)) for a in session._algorithms()]

        restored = load_session(path)
        restored.ingest_batch(tokens[midpoint:])
        assert restored.snapshot_answers() == reference
        assert [
            list(a.shard_state_ints(0)) for a in restored._algorithms()
        ] == reference_states
