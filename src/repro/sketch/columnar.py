"""Columnar sketch stacks: many sketches, one contiguous state array.

A per-sketch batch update vectorizes *within* one sketch, but the graph
algorithms fan a stream chunk out across ``n x O(log n)`` AGM vertex
sketches or ``(endpoint, r, j)`` spanner stacks before any single
sketch sees a vectorizable sub-batch — so a per-sketch engine mostly
falls back to its scalar loops.  The structural fact that rescues
vectorization is that those sketches are same-shaped and come in
*seed groups*: every vertex row of an AGM ``(round, level)`` sampler
hashes the same edge coordinates with the same hash family.  This module
stores the groups as one 2-D array (storage rows = ``(group, row)``
pairs, columns = counter cells), evaluates each chunk's polynomial
hashes and fingerprint powers in one vectorized pass, and lands every
contribution with a single flattened ``(row, cell)`` scatter —
bit-identical to updating each row's standalone sketch (the property
``tests/sketch/test_columnar.py`` pins).

Two stack flavors:

:class:`SketchStack`
    Same-shaped :class:`~repro.sketch.sparse_recovery.SparseRecoverySketch`
    states over ``num_rows`` logical rows in each of ``G`` seed groups,
    each group one independent seed shared by all its rows (one shared
    seed is the ``G = 1`` case).  The groups are AGM's ``(round,
    level)`` samplers, the spanner's ``(r, j)`` cluster sketches (rows =
    vertices) and its per-root cut sketches (one row per group).  One
    :meth:`~SketchStack.scatter` takes a per-incidence group id, gathers
    each incidence's bucket-hash coefficients and fingerprint-power
    table from its group, and lands the whole batch with one row intern
    and one flat scatter per counter plane — however many groups the
    batch touches.

:class:`L0SamplerStack`
    ``num_rows`` rows of :class:`~repro.sketch.l0sampler.L0Sampler`
    states for one or more independent seed *families* (AGM rounds).
    One stacked membership evaluation per coordinate routes every
    incidence to its geometric levels in every family, and the
    ``(family, level)`` sketches live in one seed-grouped
    :class:`SketchStack` — so an AGM chunk is one scatter.

Row storage
-----------
Every stack has one storage: ``num_rows`` is purely *logical*, and a
storage row is interned the first time its ``(group, row)`` pair is
touched, so a stack over a ``10^7``-vertex universe holds memory
proportional to the vertices that actually appear in the stream.
Untouched rows read as exact zero states.  Hashes, seeds and
fingerprint bases are functions of the group seeds and the *logical*
row index — never of intern order — so two stacks fed the same updates
hold the same rows whatever order or chunking touched them.  "Dense"
is only a :class:`~repro.graph.vertex_space.VertexSpace` policy (whether
a universe is enumerated in labels and components and charged in full
by space accounting); it never changes what a stack stores.

Exactness and interop
---------------------
Counter cells live in ``int64`` arrays guarded by a conservative running
bound per seed group (:attr:`SketchStack.cell_bound` is their maximum) on
any single cell's magnitude.  A batch is admitted group by group: each
group's bound grows by *that group's* ``|delta|`` volume times its
largest index, because a cell only ever receives its own group's
incidences.  Before a batch could overflow, the bounds are first
*tightened* to the actual maximum cell magnitudes (huge-coordinate
domains make the running bound very conservative); only if a tightened
bound still cannot admit the batch does the stack *spill* to per-row
scalar sketches and keep exact Python-integer arithmetic from then on
(state identical, just slower).  Cross-row column sums (the Borůvka
component reduction) are computed with 32-bit limb splitting, so they are
exact for any row count even when per-cell magnitudes approach the
``int64`` guard — no sum can silently wrap.

Rows materialize back into the existing sketch classes via
:meth:`SketchStack.row_sketch` / :meth:`L0SamplerStack.row_sampler`
(shared immutable hash families, copied cells), so every decode,
``clone()``, ``combine`` and ``state_ints`` contract is preserved on top
of the new storage — mixed scalar/columnar state stays summable.  The
wire (:meth:`SketchStack.sparse_state_ints`) ships, group by group, the
nonzero cells only, keyed by logical row and cell, as one ``int64``
array, which is what lets checkpoints and shard messages of dense and
sparse vertex spaces round-trip interchangeably.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.kernels import (
    MASK32,
    addmod61,
    build_pow_table,
    mulmod61,
    polyhash61_multi,
    scatter_sum_mod61,
    stack_positions_terms,
    submod61,
)
from repro import obs
from repro.sketch.hashing import MERSENNE_61, KWiseHash
from repro.sketch.l0sampler import L0Sampler
from repro.sketch.serialize import concat_ints, pack_ints
from repro.sketch.sparse_recovery import (
    _BUCKET_HASH_INDEPENDENCE,
    SparseRecoverySketch,
    as_index_array,
    max_abs_int64,
)
from repro.sketch.table_store import peel_cells
from repro.util.rng import derive_seed

__all__ = ["SketchStack", "L0SamplerStack", "fan_out_levels"]

#: Spill threshold for the running per-cell magnitude bound: while the
#: bound stays below this, every ``int64`` accumulation of one more
#: batch is provably exact (intermediates stay under ``2^62``).
_INT64_SAFE_BOUND = 1 << 61

#: Incidences landed per counter-plane pass of :meth:`SketchStack.scatter`:
#: bounds the pass's temporaries (a dozen arrays of ``rows x block``
#: words) however large the fused batch, at no measurable speed cost.
_LAND_BLOCK = 1 << 14

#: Resident ``(level, row)`` rows one block of
#: :meth:`L0SamplerStack.sample_row_sums` gathers and sums at once
#: (whole components: a block closes at the first component boundary
#: past this many rows), bounding the batched Borůvka's transient memory
#: to a few ``rows x cells`` planes however many components a round has.
_SAMPLE_BLOCK = 1 << 14

#: Signed-int64 low-limb mask for the exact cross-row column sums.
_MASK32_I64 = np.int64((1 << 32) - 1)


def fan_out_levels(deepest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nested-sample fan-out: ``(source, depth)`` lists every element
    ``t`` of ``deepest`` once per level ``0 .. deepest[t]``, as its index
    and that level (an incidence reaches every level of a nested sample
    up to its deepest)."""
    counts = deepest + 1
    source = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    return source, np.arange(source.size, dtype=np.int64) - np.repeat(starts, counts)


def _segment_sum_mod61(selected: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Exact per-segment column ``sum mod p`` of a ``uint64`` gather.

    ``selected`` holds field-element rows; segment ``s`` is rows
    ``starts[s]`` up to the next start.  The straight sum of even a
    handful of 61-bit values overflows ``uint64``, so the 32-bit limbs
    are accumulated separately (exact for up to ``2^31`` rows) and
    recombined mod ``p`` — the column form of
    :func:`repro.sketch.kernels.scatter_sum_mod61`.  Returns a
    ``(segments, columns)`` ``uint64`` array.
    """
    lo = np.add.reduceat(selected & MASK32, starts, axis=0).reshape(-1)
    hi = np.add.reduceat(selected >> np.uint64(32), starts, axis=0).reshape(-1)
    lo_red = np.remainder(lo, np.uint64(MERSENNE_61))
    hi_red = np.remainder(hi, np.uint64(MERSENNE_61))
    summed = addmod61(
        lo_red, mulmod61(hi_red, np.full_like(hi_red, (1 << 32) % MERSENNE_61))
    )
    return summed.reshape(starts.size, selected.shape[1])


def _segment_sum_exact(selected: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Exact per-segment column sum of an ``int64`` gather.

    A straight sum can wrap once per-cell magnitudes (up to the ``2^61``
    guard) meet large row counts — the Borůvka component sums over
    huge-coordinate domains hit exactly that regime.  Summing the 32-bit
    limbs separately keeps every accumulator far inside ``int64`` (rows
    < ``2^31``); the recombination stays in ``int64`` when the high
    limbs are small enough to make it provably exact, and otherwise
    returns an object array of Python integers.
    """
    lo = np.add.reduceat(selected & _MASK32_I64, starts, axis=0)
    hi = np.add.reduceat(selected >> np.int64(32), starts, axis=0)
    # |hi * 2^32| < 2^62 and lo < rows * 2^32 < 2^52: the int64 sum is exact.
    if selected.shape[0] < (1 << 20) and int(np.abs(hi).max()) < 1 << 30:
        return (hi << np.int64(32)) + lo
    return hi.astype(object) * (1 << 32) + lo.astype(object)


class SketchStack:
    """Columnar state of same-shaped sparse-recovery sketches.

    Storage key ``key = group * num_rows + row`` names logical row
    ``row`` of seed group ``group``; a stack built from one shared seed
    is the single-group case, where the key is the row.  Keys are
    interned into storage rows on first touch (see the module
    docstring), so only touched rows hold state.

    Parameters
    ----------
    num_rows:
        Logical rows per group (AGM and spanner cluster sketches:
        vertices; cut sketches: one).  A purely logical size: no row
        is allocated before it is touched.
    domain_size, budget, rows, bucket_factor:
        Per-row sketch shape, exactly as
        :class:`~repro.sketch.sparse_recovery.SparseRecoverySketch`.
    seed:
        One shared randomness name (all rows identically seeded, hence
        summable across rows — the AGM requirement), or ``None`` when
        ``group_seeds`` is given.  A list is refused: per-sketch seeds
        are groups.
    group_seeds:
        One randomness name per seed group: ``G`` independent families,
        each shared by every row, over one storage array.  Group ``g``'s
        row ``v`` is bit-identical to a single-seed stack built from
        ``group_seeds[g]``.
    """

    __slots__ = (
        "num_rows",
        "domain_size",
        "budget",
        "rows",
        "buckets",
        "cells",
        "num_groups",
        "_seed_keys",
        "_zs",
        "_hash_objs",
        "_bucket_coeffs",
        "_pow_table",
        "_pow_built",
        "_totals",
        "_index_sums",
        "_fingerprints",
        "_slot_of",
        "_slot_keys",
        "_sorted_keys",
        "_sorted_slots",
        "_resident",
        "_bounds",
        "_spilled",
    )

    def __init__(
        self,
        num_rows: int,
        domain_size: int,
        budget: int,
        seed,
        rows: int = 4,
        bucket_factor: float = 2.0,
        group_seeds=None,
    ):
        if num_rows <= 0:
            raise ValueError(f"num_rows must be positive, got {num_rows}")
        if isinstance(seed, (list, tuple)):
            # Hashed as one name, a list would seed every row identically.
            raise TypeError("seed is one shared name; pass per-sketch seeds as group_seeds=")
        if group_seeds is None:
            group_seeds = [seed]
        elif seed is not None:
            raise ValueError("pass either seed or group_seeds, not both")
        group_seeds = list(group_seeds)
        if not group_seeds:
            raise ValueError("group_seeds must name at least one group")
        template = SparseRecoverySketch(
            domain_size, budget, group_seeds[0], rows=rows, bucket_factor=bucket_factor
        )
        self.num_rows = num_rows
        self.domain_size = domain_size
        self.budget = budget
        self.rows = rows
        self.buckets = template.buckets
        self.cells = rows * self.buckets
        self.num_groups = len(group_seeds)
        # One seed key per group: the same derivation as the standalone sketch.
        self._seed_keys = [
            derive_seed(s, "sparse-recovery", domain_size, budget, rows)
            for s in group_seeds
        ]
        self._hash_objs = [
            [
                KWiseHash.shared(_BUCKET_HASH_INDEPENDENCE, derive_seed(key, "row", r))
                for r in range(rows)
            ]
            for key in self._seed_keys
        ]
        self._zs = np.array(
            [1 + key % (MERSENNE_61 - 1) for key in self._seed_keys], dtype=np.uint64
        )
        self._bucket_coeffs = np.array(
            [[h.coefficients for h in hashes] for hashes in self._hash_objs],
            dtype=np.uint64,
        )  # (groups, rows, k)
        # Per-group byte-windowed fingerprint power tables, built the first
        # time a group is touched (derived, shared across clones).
        self._pow_table: np.ndarray | None = None
        self._pow_built: np.ndarray | None = None
        self._reset_storage()

    def _reset_storage(self) -> None:
        self._totals = np.zeros((0, self.cells), dtype=np.int64)
        self._index_sums = np.zeros((0, self.cells), dtype=np.int64)
        self._fingerprints = np.zeros((0, self.cells), dtype=np.uint64)
        # Intern map: storage key -> storage row, and its inverse.
        self._slot_of: dict[int, int] = {}
        self._slot_keys: list[int] = []
        # Sorted snapshot of the intern map for vectorized batch lookup
        # (rebuilt whenever keys were added since the last batch).
        self._sorted_keys: np.ndarray | None = None
        self._sorted_slots: np.ndarray | None = None
        # Interned rows per group.
        self._resident = np.zeros(self.num_groups, dtype=np.int64)
        self._bounds = np.zeros(self.num_groups, dtype=np.int64)
        self._spilled: dict[int, SparseRecoverySketch] | None = None

    # ------------------------------------------------------------------
    # Seed / randomness plumbing (pure functions of the logical key)
    # ------------------------------------------------------------------

    def _check_group(self, group: int) -> None:
        if not 0 <= group < self.num_groups:
            raise IndexError(f"group {group} out of [0, {self.num_groups})")

    def _key(self, row: int, group: int) -> int:
        """Storage key of logical row ``row`` in group ``group`` (both
        range-checked: an out-of-range row must not alias the next
        group's rows)."""
        self._check_group(group)
        if not 0 <= row < self.num_rows:
            raise IndexError(f"row {row} out of [0, {self.num_rows})")
        return group * self.num_rows + row

    # ------------------------------------------------------------------
    # Row interning
    # ------------------------------------------------------------------

    def _grow_storage(self, needed: int) -> None:
        capacity = self._totals.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(8, 2 * capacity, needed)
        for name in ("_totals", "_index_sums", "_fingerprints"):
            old = getattr(self, name)
            grown = np.zeros((new_capacity, self.cells), dtype=old.dtype)
            grown[:capacity] = old
            setattr(self, name, grown)

    def _slot(self, key: int, create: bool) -> int | None:
        """Storage row of ``key``, interned first if ``create``."""
        slot = self._slot_of.get(key)
        if slot is None and create:
            slot = len(self._slot_keys)
            self._grow_storage(slot + 1)
            self._slot_of[key] = slot
            self._slot_keys.append(key)
            self._resident[key // self.num_rows] += 1
            self._sorted_keys = None  # lookup snapshot is stale
        return slot

    def _snapshot(self) -> np.ndarray:
        """Sorted resident keys, with their slots."""
        if self._sorted_keys is None:
            self._sorted_keys = np.array(sorted(self._slot_of), dtype=np.int64)
            self._sorted_slots = np.array(
                [self._slot_of[key] for key in self._sorted_keys.tolist()],
                dtype=np.int64,
            )
        return self._sorted_keys

    def _lookup_slots(self, keys: np.ndarray) -> np.ndarray:
        """Storage rows of ``keys`` without interning; ``-1`` if absent."""
        known = self._snapshot()
        if known.size == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        positions = np.minimum(np.searchsorted(known, keys), known.size - 1)
        return np.where(known[positions] == keys, self._sorted_slots[positions], -1)

    def _slots_for_batch(self, unique_keys: np.ndarray) -> np.ndarray:
        """Vectorized intern of a batch's distinct (sorted) keys.

        Known keys resolve through a sorted snapshot of the intern map
        with one ``searchsorted`` (the touched set saturates quickly, so
        steady-state chunks pay no per-row Python); genuinely new keys
        are bulk-interned: one storage grow, one dict update, and a
        sorted merge into the lookup snapshot.  ``unique_keys`` is
        sorted, so slot order matches the scalar intern path
        bit-for-bit.
        """
        known = self._snapshot()
        slots = self._lookup_slots(unique_keys)
        missing = np.flatnonzero(slots < 0)
        if missing.size:
            new_keys = unique_keys[missing]
            base = len(self._slot_keys)
            new_slots = np.arange(base, base + missing.size, dtype=np.int64)
            self._grow_storage(base + missing.size)
            new_list = new_keys.tolist()
            self._slot_of.update(zip(new_list, range(base, base + missing.size)))
            self._slot_keys.extend(new_list)
            np.add.at(self._resident, new_keys // self.num_rows, 1)
            slots[missing] = new_slots
            insert_at = np.searchsorted(known, new_keys)
            self._sorted_keys = np.insert(known, insert_at, new_keys)
            self._sorted_slots = np.insert(self._sorted_slots, insert_at, new_slots)
        return slots

    def _touched_keys(self) -> list[int]:
        """Sorted keys holding allocated state."""
        if self._spilled is not None:
            return sorted(self._spilled)
        return sorted(self._slot_of)

    def resident_rows(self, group: int | None = None) -> int:
        """Storage rows holding allocated state (the touched rows), in
        all groups or in one."""
        if self._spilled is not None:
            if group is None:
                return len(self._spilled)
            low = group * self.num_rows
            return sum(1 for key in self._spilled if low <= key < low + self.num_rows)
        return len(self._slot_keys) if group is None else int(self._resident[group])

    def touched_row_ids(self, group: int = 0) -> list[int]:
        """Sorted logical ids of group ``group``'s resident rows."""
        low = group * self.num_rows
        if self._spilled is not None:
            return sorted(
                key - low for key in self._spilled if low <= key < low + self.num_rows
            )
        known = self._snapshot()
        begin, end = np.searchsorted(known, [low, low + self.num_rows])
        return (known[begin:end] - low).tolist()

    def state_digest(self, hasher) -> None:
        """Feed the stack's nonzero rows into ``hasher`` canonically.

        Rows are visited in sorted key order regardless of intern order,
        and resident all-zero rows are skipped, so the digest is a
        function of the summarized vectors alone: two stacks with equal
        wires digest identically whatever order or chunking touched
        their rows (a pair netting to zero inside one chunk interns no
        row, split across two chunks it leaves an all-zero one).  At
        memory bandwidth (a sorted gather plus ``tobytes``), this is the
        cheap way to compare million-row states where
        :meth:`row_state_ints` per row would take minutes.
        """
        keys = self._nonzero_keys()
        if self._spilled is not None:
            # Spilled cells may be past int64: hash their exact varints.
            for key in keys.tolist():
                hasher.update(np.int64(key).tobytes())
                hasher.update(pack_ints(self._spilled[key].state_ints()))
            return
        slots = self._lookup_slots(keys)
        hasher.update(keys.tobytes())
        for array in (self._totals, self._index_sums, self._fingerprints):
            hasher.update(array[slots].tobytes())

    # ------------------------------------------------------------------
    # Exactness bookkeeping
    # ------------------------------------------------------------------

    @property
    def cell_bound(self) -> int:
        """Conservative bound on any cell's ``|total|`` / ``|index sum|``
        (the maximum of the per-group bounds)."""
        return int(self._bounds.max())

    def is_spilled(self) -> bool:
        """Whether the stack fell back to per-row exact sketches."""
        return self._spilled is not None

    def _row_sketch_of(self, key: int, totals=None, index_sums=None, fingerprints=None):
        """Standalone sketch of ``key``'s seeds, holding the given cell
        lists (all-zero where omitted)."""
        group = key // self.num_rows
        sketch = object.__new__(SparseRecoverySketch)
        sketch.domain_size = self.domain_size
        sketch.budget = self.budget
        sketch.rows = self.rows
        sketch.buckets = self.buckets
        sketch._seed_key = self._seed_keys[group]
        sketch._z = int(self._zs[group])
        sketch._row_hashes = list(self._hash_objs[group])
        sketch._totals = [0] * self.cells if totals is None else totals
        sketch._index_sums = [0] * self.cells if index_sums is None else index_sums
        sketch._fingerprints = [0] * self.cells if fingerprints is None else fingerprints
        return sketch

    def _spilled_sketch(self, key: int, create: bool) -> SparseRecoverySketch:
        sketch = self._spilled.get(key)
        if sketch is None:
            sketch = self._row_sketch_of(key)
            if create:
                self._spilled[key] = sketch
        return sketch

    def _spill(self) -> None:
        """Convert to per-row scalar sketches (exact big-int fallback).

        Reached only when even the tightened bound says a future
        ``int64`` accumulation might not be provably exact — unreachable
        for ``±1``-delta graph streams at any realistic length, but the
        contract must hold for arbitrary linear payloads.  Only the
        touched rows spill; untouched rows stay implicit zero states.
        """
        if self._spilled is not None:
            return
        obs.TRACER.count("sketch.spill")
        self._spilled = {key: self._materialize(key) for key in self._touched_keys()}
        self._totals = self._index_sums = self._fingerprints = None
        self._slot_of = self._slot_keys = self._resident = None
        self._sorted_keys = self._sorted_slots = None

    def _tighten_bounds(self) -> None:
        """Replace every group's running conservative bound by the actual
        maximum cell magnitude in that group (cheap relative to how
        rarely it is needed)."""
        self._bounds[:] = 0
        used = len(self._slot_keys)
        if used == 0:
            return
        magnitude = np.maximum(
            np.abs(self._totals[:used]).max(axis=1),
            np.abs(self._index_sums[:used]).max(axis=1),
        )
        groups = np.asarray(self._slot_keys, dtype=np.int64) // self.num_rows
        np.maximum.at(self._bounds, groups, magnitude)

    def _admit(self, groups: list[int], amounts: list[int]) -> bool:
        """Reserve headroom for a batch adding at most ``amounts[i]`` to
        any single cell of group ``groups[i]`` (distinct groups).
        Returns ``False`` after spilling (the caller must take the exact
        scalar route).  Plain Python over the touched groups: the scalar
        ``update_row`` path calls this once per update."""
        if self._spilled is not None:
            return False
        bounds = self._bounds
        fresh = [int(bounds[g]) + a for g, a in zip(groups, amounts)]
        if max(fresh) >= _INT64_SAFE_BOUND and max(amounts) < _INT64_SAFE_BOUND:
            self._tighten_bounds()  # in place: ``bounds`` stays current
            fresh = [int(bounds[g]) + a for g, a in zip(groups, amounts)]
        if max(fresh) < _INT64_SAFE_BOUND:
            for g, bound in zip(groups, fresh):
                bounds[g] = bound
            return True
        self._spill()
        return False

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update_row(self, row: int, index: int, delta: int, group: int = 0) -> None:
        """Scalar ``x_(group, row)[index] += delta`` — bit-identical to
        :meth:`SparseRecoverySketch.update` on that row's sketch."""
        if delta == 0:
            return
        key = self._key(row, group)
        if not 0 <= index < self.domain_size:
            raise IndexError(f"index {index} out of domain [0, {self.domain_size})")
        if not self._admit([group], [abs(delta) * max(index, 1)]):
            self._spilled_sketch(key, create=True).update(index, delta)
            return
        slot = self._slot(key, create=True)
        power = pow(int(self._zs[group]), index, MERSENNE_61)
        fingerprint_delta = delta * power
        index_delta = delta * index
        for r, row_hash in enumerate(self._hash_objs[group]):
            cell = r * self.buckets + row_hash.bucket(index, self.buckets)
            self._totals[slot, cell] += delta
            self._index_sums[slot, cell] += index_delta
            self._fingerprints[slot, cell] = np.uint64(
                (int(self._fingerprints[slot, cell]) + fingerprint_delta) % MERSENNE_61
            )

    def _batch_headroom(self, groups, indices: np.ndarray, deltas: np.ndarray):
        """``(touched groups, per-group single-cell headroom)`` of a batch.

        Every update of a group could land in one of that group's cells,
        each contributing at most ``|delta| * index`` to the index-sum
        plane (and less to the totals plane), so a group's headroom is
        its ``|delta|`` volume times its largest index — never the batch
        total, which would overstate a many-group batch by the group
        count.  The volumes must be computed without ``int64``
        wraparound: only when ``length * max|delta|`` provably fits is
        the vectorized ``|delta|`` sum exact; otherwise per-group counts
        times ``max|delta|`` (Python ints) are valid conservative
        volumes.
        """
        max_abs_delta = max_abs_int64(deltas)
        exact = deltas.size * max_abs_delta < _INT64_SAFE_BOUND
        if groups is None:
            touched = np.zeros(1, dtype=np.int64)
            volumes = [
                int(np.sum(np.abs(deltas), dtype=np.int64))
                if exact
                else deltas.size * max_abs_delta
            ]
            tops = [int(indices.max())]
        else:
            counts = np.bincount(groups, minlength=self.num_groups)
            touched = np.flatnonzero(counts)
            if exact:
                volume = np.zeros(self.num_groups, dtype=np.int64)
                np.add.at(volume, groups, np.abs(deltas))
                volumes = volume[touched].tolist()
            else:
                volumes = [int(c) * max_abs_delta for c in counts[touched].tolist()]
            top = np.zeros(self.num_groups, dtype=np.int64)
            np.maximum.at(top, groups, indices)
            tops = top[touched].tolist()
        return touched, [v * max(t, 1) for v, t in zip(volumes, tops)]

    def _cells_and_powers(self, groups: np.ndarray, coords: np.ndarray):
        """``(rows, m)`` cells of each coordinate in its group's sketch,
        and the group's fingerprint power ``z^coord`` (power tables
        built: see :meth:`_ensure_pow_tables`)."""
        positions, powers = stack_positions_terms(
            self._bucket_coeffs,
            self._pow_table,
            coords,
            np.ones(coords.size, dtype=np.uint64),
            self.buckets,
            groups,
        )
        row_offsets = np.arange(self.rows, dtype=np.int64) * np.int64(self.buckets)
        return positions + row_offsets[:, None], powers

    def _ensure_pow_tables(self, groups: np.ndarray) -> None:
        """Build the fingerprint power tables of ``groups`` not built yet
        (vectorized over the groups, once per group for the stack's
        lifetime and its clones)."""
        if self._pow_built is not None:
            groups = groups[~self._pow_built[groups]]
            if groups.size == 0:
                return
        tables = build_pow_table(self._zs[groups], self.domain_size - 1)
        if self._pow_table is None:
            # Untouched groups' pages are never written, so never resident.
            self._pow_table = np.zeros(
                (self.num_groups,) + tables.shape[1:], dtype=np.uint64
            )
            self._pow_built = np.zeros(self.num_groups, dtype=bool)
        self._pow_table[groups] = tables
        self._pow_built[groups] = True

    def scatter(
        self,
        row_ids: np.ndarray,
        indices: np.ndarray,
        deltas: np.ndarray,
        groups: np.ndarray | None = None,
    ) -> None:
        """Apply a whole incidence batch: ``x_(groups[t], row_ids[t])
        [indices[t]] += deltas[t]`` for every ``t``, in one vectorized
        pass.

        ``groups`` may be omitted on a single-group stack.  The
        polynomial bucket hashes and the fingerprint powers are
        evaluated once per incidence with each incidence's own group
        coefficients and power table; contributions land via one row
        intern and a flattened ``(storage row, cell)`` scatter per
        counter plane (in blocks of ``_LAND_BLOCK`` incidences).
        Bit-identical to the equivalent sequence of
        per-row scalar updates; only the touched rows are interned.
        """
        row_ids = as_index_array(row_ids)
        indices = as_index_array(indices)
        deltas = as_index_array(deltas)
        if groups is not None:
            groups = as_index_array(groups)
        if not (
            row_ids.shape == indices.shape == deltas.shape
            and (groups is None or groups.shape == row_ids.shape)
        ):
            raise ValueError("row_ids, indices, deltas, groups must be of equal length")
        if groups is None and self.num_groups > 1:
            raise ValueError("a multi-group stack needs a group id per incidence")
        if row_ids.size == 0:
            return
        nonzero = deltas != 0
        if not nonzero.all():
            row_ids, indices, deltas = row_ids[nonzero], indices[nonzero], deltas[nonzero]
            if groups is not None:
                groups = groups[nonzero]
            if row_ids.size == 0:
                return
        if int(indices.min()) < 0 or int(indices.max()) >= self.domain_size:
            raise IndexError(f"index batch leaves domain [0, {self.domain_size})")
        if int(row_ids.min()) < 0 or int(row_ids.max()) >= self.num_rows:
            raise IndexError(f"row batch leaves [0, {self.num_rows})")
        if groups is not None and (
            int(groups.min()) < 0 or int(groups.max()) >= self.num_groups
        ):
            raise IndexError(f"group batch leaves [0, {self.num_groups})")
        obs.TRACER.observe("sketch.scatter.batch", row_ids.size)
        keys = row_ids if groups is None else groups * np.int64(self.num_rows) + row_ids
        touched, headroom = self._batch_headroom(groups, indices, deltas)
        if not self._admit(touched.tolist(), headroom):
            # Spilled: exact per-row sketches, fed by their scalar oracle.
            for key, index, delta in zip(keys.tolist(), indices.tolist(), deltas.tolist()):
                self._spilled_sketch(key, create=True).update(index, delta)
            return

        unique_keys, inverse = np.unique(keys, return_inverse=True)
        slots = self._slots_for_batch(unique_keys)[inverse]

        residues = np.remainder(deltas, MERSENNE_61).astype(np.uint64)
        self._ensure_pow_tables(touched)
        # The fused dispatch entry: gathered polyhash → fold → fingerprint
        # weighting in one backend call (the hot per-chunk path).
        positions, terms = stack_positions_terms(
            self._bucket_coeffs,
            self._pow_table,
            indices,
            residues,
            self.buckets,
            np.zeros(indices.size, dtype=np.int64) if groups is None else groups,
        )
        for start in range(0, slots.size, _LAND_BLOCK):
            block = slice(start, start + _LAND_BLOCK)
            self._land(
                slots[block], positions[:, block], deltas[block], indices[block], terms[block]
            )

    def _land(self, slots, positions, deltas, indices, terms) -> None:
        """Add one block of precomputed incidences into the counter
        planes: one flattened ``(storage row, cell)`` scatter per plane.

        Fingerprints aggregate over the block's *distinct* cells only:
        the store holds far more cells than one block touches, and cells
        outside the block would receive an exact ``+0``."""
        flat_base = slots * np.int64(self.cells)
        flat = np.concatenate(
            [flat_base + np.int64(r * self.buckets) + positions[r] for r in range(self.rows)]
        )
        np.add.at(self._totals.reshape(-1), flat, np.tile(deltas, self.rows))
        np.add.at(self._index_sums.reshape(-1), flat, np.tile(deltas * indices, self.rows))
        unique_flat, inverse_flat = np.unique(flat, return_inverse=True)
        agg = scatter_sum_mod61(unique_flat.size, inverse_flat, np.tile(terms, self.rows))
        fingerprints_flat = self._fingerprints.reshape(-1)
        fingerprints_flat[unique_flat] = addmod61(fingerprints_flat[unique_flat], agg)

    # ------------------------------------------------------------------
    # Row materialization / decode support
    # ------------------------------------------------------------------

    def _materialize(self, key: int) -> SparseRecoverySketch:
        slot = self._slot(key, create=False)
        sketch = self._row_sketch_of(key)
        if slot is not None:
            sketch._totals = self._totals[slot].tolist()
            sketch._index_sums = self._index_sums[slot].tolist()
            sketch._fingerprints = self._fingerprints[slot].tolist()
        return sketch

    def _key_sketch(self, key: int) -> SparseRecoverySketch:
        if self._spilled is not None:
            return self._spilled_sketch(key, create=False).copy()
        return self._materialize(key)

    def row_sketch(self, row: int, group: int = 0) -> SparseRecoverySketch:
        """A standalone sketch holding row ``row``'s exact current state
        in group ``group``.

        Cheap view: hash families are shared (immutable), cells copied;
        mutating the returned sketch never touches the stack.  Reading a
        never-touched row yields an exact zero state without interning
        it.
        """
        return self._key_sketch(self._key(row, group))

    def rows_sum_sketch(self, row_ids, group: int = 0) -> SparseRecoverySketch:
        """One sketch holding the exact cell-wise sum of the selected rows
        of group ``group`` (see :meth:`rows_sum_sketches`)."""
        return self.rows_sum_sketches(row_ids, [group])[0]

    def rows_sum_sketches(self, row_ids, groups) -> list[SparseRecoverySketch]:
        """Per group in ``groups``, one sketch summing the selected rows.

        Linearity makes each the sketch of the summed vectors — the
        Borůvka component sum and the spanner's ``Q`` sums, computed as
        vectorized column reductions instead of pairwise ``combine``
        loops (identical resulting state).  All groups are read with one
        gather per counter plane and summed segment-wise.  The integer planes are summed with
        limb splitting, so the reduction is exact for any row count even
        near the per-cell ``int64`` guard.
        """
        rows = np.asarray(list(row_ids), dtype=np.int64)
        if rows.size == 0:
            raise ValueError("rows_sum_sketches needs at least one row")
        if int(rows.min()) < 0 or int(rows.max()) >= self.num_rows:
            raise IndexError(f"row selection leaves [0, {self.num_rows})")
        groups = np.asarray(groups, dtype=np.int64)
        if int(groups.min()) < 0 or int(groups.max()) >= self.num_groups:
            raise IndexError(f"group selection leaves [0, {self.num_groups})")
        keys = groups[:, None] * np.int64(self.num_rows) + rows[None, :]
        if self._spilled is not None:
            sums = []
            for group_keys in keys.tolist():
                combined = self._spilled_sketch(group_keys[0], create=False).copy()
                for key in group_keys[1:]:
                    combined.combine(self._spilled_sketch(key, create=False))
                sums.append(combined)
            return sums
        first_keys = keys[:, 0].tolist()
        slots = self._lookup_slots(keys.reshape(-1))
        present = np.flatnonzero(slots >= 0)
        cells = [(None, None, None)] * len(first_keys)
        if present.size:
            # Absent rows are zero: sum only the present (group, row)
            # pairs, which come group-major — one segment per group.
            owner = present // rows.size
            starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
            taken = slots[present]
            totals = _segment_sum_exact(self._totals[taken], starts).tolist()
            index_sums = _segment_sum_exact(self._index_sums[taken], starts).tolist()
            fingerprints = self._fingerprints[taken]
            # Many sums hold no contributions at all — skip the modular
            # sum for those.
            fingerprint_sums = (
                _segment_sum_mod61(fingerprints, starts).tolist()
                if fingerprints.any()
                else [None] * starts.size
            )
            for seg, i in enumerate(owner[starts].tolist()):
                cells[i] = (totals[seg], index_sums[seg], fingerprint_sums[seg])
        return [self._row_sketch_of(key, *cells[i]) for i, key in enumerate(first_keys)]

    def is_row_zero(self, row: int, group: int = 0) -> bool:
        """Whether row ``row``'s summarized vector in group ``group`` is
        (whp) zero."""
        key = self._key(row, group)
        if self._spilled is not None:
            return self._spilled_sketch(key, create=False).is_zero()
        slot = self._slot(key, create=False)
        if slot is None:
            return True
        return (
            not self._totals[slot].any()
            and not self._index_sums[slot].any()
            and not self._fingerprints[slot].any()
        )

    def _nonzero_keys(self) -> np.ndarray:
        """Sorted keys of storage rows with any nonzero cell.

        A pure function of the summarized vectors (independent of intern
        order and batch chunking), which is why the sparse wire format
        below is deterministic.
        """
        if self._spilled is not None:
            return np.array(
                sorted(key for key, sketch in self._spilled.items() if not sketch.is_zero()),
                dtype=np.int64,
            )
        used = len(self._slot_keys)
        if used == 0:
            return np.zeros(0, dtype=np.int64)
        alive = (
            self._totals[:used].any(axis=1)
            | self._index_sums[:used].any(axis=1)
            | self._fingerprints[:used].any(axis=1)
        )
        return np.sort(np.asarray(self._slot_keys, dtype=np.int64)[alive])

    # ------------------------------------------------------------------
    # Serialization (per-row, matching SparseRecoverySketch layout)
    # ------------------------------------------------------------------

    def row_state_len(self) -> int:
        """Length of one row's :meth:`row_state_ints`."""
        return 3 * self.cells

    def row_state_ints(self, row: int, group: int = 0) -> list[int]:
        """Row ``row``'s dynamic state in group ``group``, exactly as the
        standalone sketch's ``state_ints()`` would serialize it."""
        key = self._key(row, group)
        if self._spilled is not None:
            return self._spilled_sketch(key, create=False).state_ints()
        slot = self._slot(key, create=False)
        if slot is None:
            return [0] * (3 * self.cells)
        return (
            self._totals[slot].tolist()
            + self._index_sums[slot].tolist()
            + self._fingerprints[slot].tolist()
        )

    def load_row_state(self, row: int, values: list[int], group: int = 0) -> None:
        """Inverse of :meth:`row_state_ints` for row ``row`` of group
        ``group`` (the exact per-row path; the wire is
        :meth:`load_sparse_state`).  Loading an all-zero state into a
        never-touched row is a no-op, so it interns no row."""
        if len(values) != 3 * self.cells:
            raise ValueError(f"expected {3 * self.cells} state ints, got {len(values)}")
        key = self._key(row, group)
        if (
            not any(values)
            and self._spilled is None
            and self._slot(key, create=False) is None
        ):
            return
        # The bound covers the int64 counter planes (fingerprints are
        # residues); loading overwrites the row, so the group's bound
        # only has to cover the larger of its old and the loaded cells.
        counters = values[: 2 * self.cells]
        magnitude = max(max(counters), -min(counters))
        if self._spilled is not None or magnitude >= _INT64_SAFE_BOUND:
            self._spill()
            self._spilled_sketch(key, create=True).from_state_ints(values)
            return
        self._bounds[group] = max(int(self._bounds[group]), magnitude)
        slot = self._slot(key, create=True)
        cells = self.cells
        self._totals[slot] = np.array(values[:cells], dtype=np.int64)
        self._index_sums[slot] = np.array(values[cells : 2 * cells], dtype=np.int64)
        self._fingerprints[slot] = np.array(
            [int(v) % MERSENNE_61 for v in values[2 * cells :]], dtype=np.uint64
        )

    def reset_state(self) -> None:
        """Drop every cell back to the all-zero state (seeds kept)."""
        self._reset_storage()

    def sparse_state_ints(self) -> np.ndarray | list[int]:
        """The stack's nonzero cells, one self-delimiting block per group
        in group order: ``[count, (key, total, index sum, fingerprint)
        ...]`` with ``key = row * cells + cell`` strictly increasing —
        the cell record of
        :meth:`~repro.sketch.table_store.SparseRecoveryStore.sparse_state_ints`.

        Zero cells never ship, so stacks fed the same updates emit
        identical blocks whatever order or chunking touched their rows —
        the wire checkpoints and shard messages carry.  Built as one
        ``int64`` array straight from the counter planes (fingerprints
        are below ``p < 2^63``); a spilled stack, whose counters may
        leave ``int64``, ships a list of exact ints.
        """
        if self._spilled is not None:
            return self._spilled_cells()
        keys = self._snapshot()
        slots = self._sorted_slots
        totals = self._totals[slots]
        index_sums = self._index_sums[slots]
        fingerprints = self._fingerprints[slots]
        # Row-major over sorted row keys: records come group by group,
        # each group's in ascending cell key.
        owner, cell = np.nonzero((totals != 0) | (index_sums != 0) | (fingerprints != 0))
        row_keys = keys[owner]
        counts = np.bincount(row_keys // self.num_rows, minlength=self.num_groups)
        heads = np.arange(self.num_groups) + 4 * (np.cumsum(counts) - counts)
        wire = np.empty(self.num_groups + 4 * owner.size, dtype=np.int64)
        wire[heads] = counts
        records = np.ones(wire.size, dtype=bool)
        records[heads] = False
        block = np.empty((owner.size, 4), dtype=np.int64)
        block[:, 0] = (row_keys % self.num_rows) * self.cells + cell
        block[:, 1] = totals[owner, cell]
        block[:, 2] = index_sums[owner, cell]
        block[:, 3] = fingerprints[owner, cell]
        wire[records] = block.reshape(-1)
        return wire

    def _spilled_cells(self) -> list[int]:
        """:meth:`sparse_state_ints` of a spilled stack, in exact ints."""
        flat: list[int] = []
        keys = sorted(self._spilled)
        at = 0
        for group in range(self.num_groups):
            records: list[int] = []
            low = group * self.num_rows
            while at < len(keys) and keys[at] < low + self.num_rows:
                sketch = self._spilled[keys[at]]
                base = (keys[at] - low) * self.cells
                at += 1
                for cell, values in enumerate(
                    zip(sketch._totals, sketch._index_sums, sketch._fingerprints)
                ):
                    if any(values):
                        records.extend((base + cell, *values))
            flat.append(len(records) // 4)
            flat.extend(records)
        return flat

    def load_sparse_state(self, values, cursor: int = 0) -> int:
        """Inverse of :meth:`sparse_state_ints` from ``values[cursor]``
        (a list or an ``int64`` array); returns the cursor past the block.

        The whole block is checked before any state changes, else
        ``ValueError``: every group's count fits the wire, each group's
        keys strictly increase and lie in ``[0, num_rows * cells)``, every
        fingerprint is a residue in ``[0, p)`` and no cell is all-zero.
        The block then overwrites the stack: it is reset and exactly the
        rows the block names are interned, in one vectorized pass.  A
        counter at the spill bound (or past ``int64``) loads into a
        spilled stack, in exact ints.
        """
        start, counts = cursor, []
        for _ in range(self.num_groups):
            if not 0 <= cursor < len(values):
                raise ValueError("cell block ends before a group's count")
            count = int(values[cursor])
            if count < 0 or cursor + 1 + 4 * count > len(values):
                raise ValueError(f"cell count {count} overruns the wire")
            counts.append(count)
            cursor += 1 + 4 * count
        chunk = concat_ints([values[start:cursor]])
        if isinstance(chunk, list):
            chunk = np.array(chunk, dtype=object)  # exact ints past int64
        counts = np.asarray(counts, dtype=np.int64)
        body = np.ones(len(chunk), dtype=bool)
        body[np.arange(counts.size) + 4 * (np.cumsum(counts) - counts)] = False
        records = chunk[body].reshape(-1, 4)
        try:
            keys = records[:, 0].astype(np.int64)
            fingerprints = records[:, 3].astype(np.int64)
        except OverflowError as error:
            raise ValueError("cell key or fingerprint leaves int64") from error
        totals, index_sums = records[:, 1], records[:, 2]
        groups = np.repeat(np.arange(self.num_groups, dtype=np.int64), counts)
        span = self.num_rows * self.cells
        magnitude = 0
        if keys.size:
            if int(keys.min()) < 0 or int(keys.max()) >= span:
                raise ValueError(f"cell key outside [0, {span})")
            ordered = groups * np.int64(span) + keys
            if np.any(ordered[1:] <= ordered[:-1]):
                raise ValueError("cell keys must strictly increase")
            if np.any((fingerprints < 0) | (fingerprints >= MERSENNE_61)):
                raise ValueError("cell fingerprint outside [0, p)")
            if not np.all((totals != 0) | (index_sums != 0) | (fingerprints != 0)):
                raise ValueError("an all-zero cell is on the wire")
            magnitude = max(
                int(totals.max()), -int(totals.min()),
                int(index_sums.max()), -int(index_sums.min()),
            )
        self._reset_storage()
        row_keys = groups * np.int64(self.num_rows) + keys // self.cells
        cells = keys % self.cells
        if magnitude >= _INT64_SAFE_BOUND:
            self._spill()
            for key, cell, total, index_sum, fingerprint in zip(
                row_keys.tolist(), cells.tolist(), totals.tolist(),
                index_sums.tolist(), fingerprints.tolist(),
            ):
                sketch = self._spilled_sketch(key, create=True)
                sketch._totals[cell] = int(total)
                sketch._index_sums[cell] = int(index_sum)
                sketch._fingerprints[cell] = fingerprint
            return cursor
        if keys.size == 0:
            return cursor
        totals, index_sums = totals.astype(np.int64), index_sums.astype(np.int64)
        starts = np.flatnonzero(np.r_[True, row_keys[1:] != row_keys[:-1]])
        slots = np.repeat(
            self._slots_for_batch(row_keys[starts]), np.diff(np.r_[starts, row_keys.size])
        )
        self._totals[slots, cells] = totals
        self._index_sums[slots, cells] = index_sums
        self._fingerprints[slots, cells] = fingerprints
        np.maximum.at(self._bounds, groups, np.maximum(np.abs(totals), np.abs(index_sums)))
        return cursor

    # ------------------------------------------------------------------
    # Linearity / copying
    # ------------------------------------------------------------------

    def combine(self, other: "SketchStack", sign: int = 1) -> None:
        """In-place ``self += sign * other`` row-wise; seeds/shapes must
        match.  Spilled and columnar operands mix freely — touched rows
        land bit-identically whichever form either operand is in."""
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if self._seed_keys != other._seed_keys:
            raise ValueError("cannot combine stacks with different seeds")
        if self.num_rows != other.num_rows or self.cells != other.cells:
            raise ValueError("cannot combine stacks with different shapes")
        if self._spilled is None and other._spilled is None:
            keys = other._nonzero_keys()
            if keys.size == 0:
                return
            groups = np.unique(keys // self.num_rows).tolist()
            if self._admit(groups, other._bounds[groups].tolist()):
                other_slots = other._lookup_slots(keys)
                my_slots = self._slots_for_batch(keys)
                self._totals[my_slots] += sign * other._totals[other_slots]
                self._index_sums[my_slots] += sign * other._index_sums[other_slots]
                field_op = addmod61 if sign == 1 else submod61
                self._fingerprints[my_slots] = field_op(
                    self._fingerprints[my_slots], other._fingerprints[other_slots]
                )
                return
        self._spill()
        for key in other._touched_keys():
            self._spilled_sketch(key, create=True).combine(other._key_sketch(key), sign)

    def clone(self) -> "SketchStack":
        """Independent copy with the same state and seeds."""
        clone = object.__new__(SketchStack)
        for name in (
            "num_rows", "domain_size", "budget", "rows", "buckets", "cells",
            "num_groups",
            # Derived, immutable (or fill-once) randomness: shared.
            "_seed_keys", "_zs", "_hash_objs", "_bucket_coeffs", "_pow_table",
            "_pow_built",
        ):
            setattr(clone, name, getattr(self, name))
        clone._bounds = self._bounds.copy()
        clone._sorted_keys = clone._sorted_slots = None
        if self._spilled is not None:
            clone._totals = clone._index_sums = clone._fingerprints = None
            clone._slot_of = clone._slot_keys = clone._resident = None
            clone._spilled = {key: sketch.copy() for key, sketch in self._spilled.items()}
        else:
            clone._totals = self._totals.copy()
            clone._index_sums = self._index_sums.copy()
            clone._fingerprints = self._fingerprints.copy()
            clone._slot_of = dict(self._slot_of)
            clone._slot_keys = list(self._slot_keys)
            clone._resident = self._resident.copy()
            clone._spilled = None
        return clone

    def row_space_words(self) -> int:
        """Per-row persistent state in machine words — same accounting as
        the standalone sketch's ``space_words()``."""
        return 3 * self.cells + sum(h.space_words() for h in self._hash_objs[0]) + 1

    def nonzero_rows(self) -> np.ndarray:
        """Rows holding a nonzero cell, per group: the rows the wire
        ships, so a stack and its restored copy count alike (a row whose
        cells cancel across chunks stays resident but counts zero)."""
        return np.bincount(self._nonzero_keys() // self.num_rows, minlength=self.num_groups)

    def resident_space_words(self) -> int:
        """Words held by the rows with a nonzero cell."""
        return sum(self.nonzero_rows().tolist()) * self.row_space_words()

    def universe_space_words(self) -> int:
        """Words a fully dense allocation over the universe would hold."""
        return self.num_groups * self.num_rows * self.row_space_words()

    def __repr__(self) -> str:
        return (
            f"SketchStack(num_rows={self.num_rows}, domain_size={self.domain_size}, "
            f"budget={self.budget}, rows={self.rows}, buckets={self.buckets}, "
            f"groups={self.num_groups}, resident={self.resident_rows()}, "
            f"spilled={self.is_spilled()})"
        )


class L0SamplerStack:
    """Columnar state of ``num_rows`` L0-samplers per seed family.

    ``seed`` names one family, or a list names several independent
    families (AGM rounds); every scatter and ``update_row`` reaches
    every family, since all AGM rounds see the same incidences.  One
    stacked :func:`~repro.sketch.kernels.polyhash61_multi` membership
    evaluation per coordinate routes each incidence to its geometric
    levels in every family, and all ``(family, level)`` sketches live in
    one seed-grouped :class:`SketchStack` (group ``family * levels +
    level``) — one scatter per batch.  This is the storage behind
    :class:`~repro.agm.spanning_forest.AgmSketch`: rows are vertices.
    Rows are interned on first touch, like every :class:`SketchStack`
    row, so a huge-universe stack holds state for touched vertices only.
    """

    __slots__ = (
        "num_rows",
        "domain_size",
        "levels",
        "families",
        "_seed_keys",
        "_memberships",
        "_membership_coeffs",
        "_tiebreaks",
        "_store",
    )

    def __init__(self, num_rows: int, domain_size: int, seed, budget: int = 4):
        family_seeds = list(seed) if isinstance(seed, (list, tuple)) else [seed]
        templates = [L0Sampler(domain_size, s, budget=budget) for s in family_seeds]
        self.num_rows = num_rows
        self.domain_size = domain_size
        self.levels = templates[0].levels
        self.families = len(templates)
        self._seed_keys = [t._seed_key for t in templates]
        self._memberships = [t._membership for t in templates]
        self._tiebreaks = [t._tiebreak for t in templates]
        self._membership_coeffs = np.array(
            [m.coefficients for m in self._memberships], dtype=np.uint64
        )
        self._store = SketchStack(
            num_rows,
            domain_size,
            budget,
            None,
            rows=3,
            group_seeds=[
                derive_seed(key, "level", j)
                for key in self._seed_keys
                for j in range(self.levels)
            ],
        )

    def update_row(self, row: int, index: int, delta: int) -> None:
        """Scalar ``x_row[index] += delta`` in every family —
        bit-identical to :meth:`L0Sampler.update` on each family's
        sampler of the row."""
        if delta == 0:
            return
        for family, membership in enumerate(self._memberships):
            first = family * self.levels
            for j in range(membership.level(index) + 1):
                self._store.update_row(row, index, delta, first + j)

    def scatter(self, row_ids: np.ndarray, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Vectorized incidence batch into every family: one stacked
        membership evaluation per coordinate, then exactly one
        :meth:`SketchStack.scatter` of the ``(family, level)``
        incidences."""
        row_ids = as_index_array(row_ids)
        indices = as_index_array(indices)
        deltas = as_index_array(deltas)
        if not row_ids.shape == indices.shape == deltas.shape:
            raise ValueError("row_ids, indices, deltas must be of equal length")
        n = indices.size
        if n == 0:
            return
        levels = self._memberships[0].levels_of_values(
            polyhash61_multi(self._membership_coeffs, indices)
        )  # (families, n): every family shares max_level
        # Expand each (family, incidence) into its levels 0..deepest.
        source, depth = fan_out_levels(levels.reshape(-1))
        incidence = source % n
        groups = (source // n) * np.int64(self.levels) + depth
        self._store.scatter(row_ids[incidence], indices[incidence], deltas[incidence], groups)

    # ------------------------------------------------------------------
    # Row materialization / decode support
    # ------------------------------------------------------------------

    def _family_groups(self, family: int) -> np.ndarray:
        if not 0 <= family < self.families:
            raise IndexError(f"family {family} out of [0, {self.families})")
        first = family * self.levels
        return np.arange(first, first + self.levels, dtype=np.int64)

    def _sampler(self, family: int, sketches: list[SparseRecoverySketch]) -> L0Sampler:
        sampler = object.__new__(L0Sampler)
        sampler.domain_size = self.domain_size
        sampler.levels = self.levels
        sampler._seed_key = self._seed_keys[family]
        sampler._membership = self._memberships[family]
        sampler._level_sketches = sketches
        sampler._tiebreak = self._tiebreaks[family]
        return sampler

    def row_sampler(self, row: int, family: int = 0) -> L0Sampler:
        """A standalone sampler holding row ``row``'s exact state in
        family ``family`` (all levels read with one gather)."""
        return self.rows_sum_sampler([row], family)

    def rows_sum_sampler(self, row_ids, family: int = 0) -> L0Sampler:
        """One sampler summarizing the exact sum of the selected rows in
        family ``family`` — the Borůvka component sum, as one gathered
        column reduction over all levels."""
        groups = self._family_groups(family)
        return self._sampler(family, self._store.rows_sum_sketches(row_ids, groups))

    def sample_row_sums(self, row_ids, labels, family: int = 0) -> list:
        """Sample every labelled row set's summed sampler in one batch.

        Entry ``c`` is exactly ``rows_sum_sampler(rows labelled c,
        family).sample()`` for every label ``c`` in ``0 ..
        max(labels)``: ``(coordinate, value)``, or ``None`` (``row_ids``
        distinct; a label no row carries samples the zero vector).  This
        is one Borůvka round for every component at once:

        * the family's resident ``(level, row)`` rows are read off the
          store's sorted key snapshot (no probe per level and row), and
          summed per ``(label, level)`` with the exact limb-split
          segment sums;
        * each label walks its nonzero levels top down: the current
          level of every label is decoded in one batched peel
          (:func:`~repro.sketch.table_store.peel_cells`, hashing with the
          stack's own bucket coefficients and power tables), and only the
          labels whose decode failed or netted to empty move down;
        * a decoded label samples its ``(tiebreak(i), i)``-least
          coordinate, as :meth:`L0Sampler.sample` does.

        Labels are processed in blocks of whole labels of about
        :data:`_SAMPLE_BLOCK` resident rows.  A spilled stack (cells past
        ``int64``) samples each label through its exact scalar sampler.
        """
        rows = as_index_array(row_ids)
        labels = as_index_array(labels)
        if rows.shape != labels.shape:
            raise ValueError("row_ids and labels must be of equal length")
        groups = self._family_groups(family)
        count = int(labels.max()) + 1 if labels.size else 0
        samples: list = [None] * count
        if rows.size == 0:
            return samples
        if int(rows.min()) < 0 or int(rows.max()) >= self.num_rows:
            raise IndexError(f"row selection leaves [0, {self.num_rows})")
        if int(labels.min()) < 0:
            raise ValueError("labels must be non-negative")
        store = self._store
        if store.is_spilled():
            members: list[list[int]] = [[] for _ in range(count)]
            for row, label in zip(rows.tolist(), labels.tolist()):
                members[label].append(row)
            return [
                self.rows_sum_sampler(member, family).sample() if member else None
                for member in members
            ]
        # The family's resident rows, each tagged with its row's label.
        order = np.argsort(rows)
        rows, labels = rows[order], labels[order]
        known = store._snapshot()
        span = np.searchsorted(known, [int(groups[0]) * self.num_rows,
                                       (int(groups[-1]) + 1) * self.num_rows])
        keys = known[span[0] : span[1]]
        slots = store._sorted_slots[span[0] : span[1]]
        resident_rows = keys % self.num_rows
        at = np.minimum(np.searchsorted(rows, resident_rows), rows.size - 1)
        chosen = rows[at] == resident_rows
        keys, slots, at = keys[chosen], slots[chosen], at[chosen]
        if keys.size == 0:
            return samples
        store._ensure_pow_tables(np.unique(keys // self.num_rows))
        level = keys // self.num_rows - int(groups[0])
        label = labels[at]
        # Label-major, each label's levels top down.
        order = np.lexsort((-level, label))
        level, label, slots = level[order], label[order], slots[order]
        label_starts = np.flatnonzero(np.r_[True, label[1:] != label[:-1]])
        cuts = label_starts[np.r_[True, np.diff(label_starts // _SAMPLE_BLOCK) > 0]]
        for begin, end in zip(cuts.tolist(), cuts[1:].tolist() + [label.size]):
            self._sample_block(
                family, label[begin:end], level[begin:end], slots[begin:end], samples
            )
        return samples

    def _sample_block(self, family, label, level, slots, samples) -> None:
        """:meth:`sample_row_sums` for one block of whole labels (rows
        sorted by label, then level descending): sum, walk, peel."""
        store = self._store
        cells = store.cells
        starts = np.flatnonzero(
            np.r_[True, (label[1:] != label[:-1]) | (level[1:] != level[:-1])]
        )
        totals = _segment_sum_exact(store._totals[slots], starts)
        index_sums = _segment_sum_exact(store._index_sums[slots], starts)
        fingerprints = _segment_sum_mod61(store._fingerprints[slots], starts)
        # Only nonzero (label, level) sums can decode to a sample.
        nonzero = ((totals != 0) | (index_sums != 0) | (fingerprints != 0)).any(axis=1)
        keep = np.flatnonzero(nonzero)
        totals, index_sums, fingerprints = totals[keep], index_sums[keep], fingerprints[keep]
        label, level = label[starts[keep]], level[starts[keep]]
        if label.size == 0:
            return
        top = np.flatnonzero(np.r_[True, label[1:] != label[:-1]])
        bottom = np.r_[top[1:], label.size]
        current = top.copy()  # each label's level under decode
        walking = np.arange(top.size)
        tiebreak = self._tiebreaks[family]
        first_group = family * self.levels
        while walking.size:
            segment = current[walking]
            obs.TRACER.count("sketch.decode.attempt", int(segment.size))
            mask = (
                (totals[segment] != 0)
                | (index_sums[segment] != 0)
                | (fingerprints[segment] != 0)
            )
            owner, cell = np.nonzero(mask)
            obs.TRACER.count("sketch.decode.peel_iterations", int(owner.size))
            stack_groups = first_group + level[segment]

            def cells_of(owners, coords):
                at, powers = store._cells_and_powers(stack_groups[owners], coords)
                return owners * np.int64(cells) + at, powers

            found, coords, values, failed = peel_cells(
                owner * np.int64(cells) + cell,
                totals[segment][mask].astype(object),
                index_sums[segment][mask].astype(object),
                fingerprints[segment][mask],
                cells,
                store.rows,
                store.domain_size,
                cells_of,
            )
            obs.TRACER.count("sketch.decode.fail", int(failed.size))
            ok = ~np.isin(found, failed)
            found, coords, values = found[ok], coords[ok], values[ok]
            # Each decoded owner's (tiebreak(i), i)-least coordinate.
            order = np.lexsort((coords, tiebreak.values_array(coords), found))
            found, coords, values = found[order], coords[order], values[order]
            head = np.flatnonzero(np.diff(found, prepend=-1) != 0)
            decoded = found[head]
            for position, coordinate, value in zip(
                label[segment[decoded]].tolist(), coords[head].tolist(), values[head].tolist()
            ):
                samples[position] = (coordinate, int(value))
            # Failed or empty: down one nonzero level, if any is left.
            undecoded = np.ones(segment.size, dtype=bool)
            undecoded[decoded] = False
            walking = walking[undecoded]
            current[walking] += 1
            walking = walking[current[walking] < bottom[walking]]

    def touched_row_ids(self) -> list[int]:
        """Sorted logical ids of rows ever updated (every update reaches
        level 0 of every family, so group 0 carries the full touched
        set)."""
        return self._store.touched_row_ids(0)

    def resident_rows(self) -> int:
        """Materialized ``(family, level, row)`` storage rows."""
        return self._store.resident_rows()

    def num_touched_rows(self) -> int:
        """Number of rows ever updated, in O(1) (group 0's resident count
        — every update reaches level 0).  The cheap cardinality twin of
        :meth:`touched_row_ids`, which sorts."""
        return self._store.resident_rows(0)

    def state_digest(self, hasher) -> None:
        """Feed the grouped store's resident state into ``hasher`` (see
        :meth:`SketchStack.state_digest` for the canonical order)."""
        self._store.state_digest(hasher)

    # ------------------------------------------------------------------
    # Serialization (per-row, matching L0Sampler layout)
    # ------------------------------------------------------------------

    def row_state_len(self) -> int:
        """Length of one row's :meth:`row_state_ints`."""
        return self.levels * self._store.row_state_len()

    def row_state_ints(self, row: int, family: int = 0) -> list[int]:
        """Row ``row``'s state, exactly as ``L0Sampler.state_ints()``."""
        flat: list[int] = []
        for group in self._family_groups(family).tolist():
            flat.extend(self._store.row_state_ints(row, group))
        return flat

    def load_row_state(self, row: int, values: list[int], family: int = 0) -> None:
        """Inverse of :meth:`row_state_ints` for row ``row``."""
        if len(values) != self.row_state_len():
            raise ValueError(f"expected {self.row_state_len()} state ints, got {len(values)}")
        need = self._store.row_state_len()
        for j, group in enumerate(self._family_groups(family).tolist()):
            self._store.load_row_state(row, values[j * need : (j + 1) * need], group)

    def reset_state(self) -> None:
        """Drop every row back to the all-zero state."""
        self._store.reset_state()

    def sparse_state_ints(self) -> np.ndarray | list[int]:
        """Per-level nonzero-cell blocks, family-major (see
        :meth:`SketchStack.sparse_state_ints`) — independent of the
        order rows were touched in."""
        return self._store.sparse_state_ints()

    def load_sparse_state(self, values, cursor: int = 0) -> int:
        """Inverse of :meth:`sparse_state_ints`, checked whole and then
        overwriting (see :meth:`SketchStack.load_sparse_state`); returns
        the new cursor."""
        return self._store.load_sparse_state(values, cursor)

    # ------------------------------------------------------------------
    # Linearity / copying
    # ------------------------------------------------------------------

    def combine(self, other: "L0SamplerStack", sign: int = 1) -> None:
        """In-place ``self += sign * other``; seeds must match."""
        if self._seed_keys != other._seed_keys:
            raise ValueError("cannot combine stacks with different seeds")
        self._store.combine(other._store, sign)

    def clone(self) -> "L0SamplerStack":
        """Independent copy with the same state and seeds."""
        clone = object.__new__(L0SamplerStack)
        for name in (
            "num_rows", "domain_size", "levels", "families",
            "_seed_keys", "_memberships", "_membership_coeffs", "_tiebreaks",
        ):
            setattr(clone, name, getattr(self, name))
        clone._store = self._store.clone()
        return clone

    def _seed_words(self) -> int:
        return self._memberships[0].space_words() + self._tiebreaks[0].space_words()

    def row_space_words(self) -> int:
        """Per-row, per-family persistent state in machine words — same
        accounting as the standalone sampler's ``space_words()``."""
        return self._seed_words() + self.levels * self._store.row_space_words()

    def resident_space_words(self) -> int:
        """Words held by the rows with a nonzero cell.

        Mirrors the per-sampler accounting (each charged row charges its
        own membership/tiebreak seeds once per family, and its nonzero
        levels), so a stack whose every row is nonzero at every level
        reports exactly :meth:`universe_space_words`.  Only rows holding
        a nonzero cell count — the rows the wire ships — so a live stack
        and its restored copy charge alike.  Charging a whole universe
        regardless of what was touched is a
        :class:`~repro.graph.vertex_space.VertexSpace` policy, applied by
        :meth:`~repro.agm.spanning_forest.AgmSketch.space_words`.
        """
        rows = self._store.nonzero_rows().tolist()
        return (
            sum(rows[:: self.levels]) * self._seed_words()
            + sum(rows) * self._store.row_space_words()
        )

    def universe_space_words(self) -> int:
        """Words a fully dense universe allocation would hold."""
        return self.families * self.num_rows * self.row_space_words()

    def __repr__(self) -> str:
        return (
            f"L0SamplerStack(num_rows={self.num_rows}, "
            f"domain_size={self.domain_size}, levels={self.levels}, "
            f"families={self.families})"
        )
