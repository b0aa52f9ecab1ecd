"""Many same-shaped sparse-recovery sketches, stored as their nonzero cells.

Section 3.2 only asks that a pass-2 table ``H^u_j`` be a linear sketch of
a vector in ``R^V``; it says nothing about how the cells are stored.  A
spanner's pass 2 holds one
:class:`~repro.sketch.linear_hash_table.NeighborhoodHashTable` per
``(terminal root, Y_j stack, j)`` and one cut sketch per terminal root —
thousands of sketches, each sized for its capacity but holding a handful
of coordinates.  This module keeps each family as the seed groups of one
store that holds *nonzero cells only* (COO: one sorted cell-key array and
three counter planes):

:class:`SparseRecoveryStore`
    Groups of :class:`~repro.sketch.sparse_recovery.SparseRecoverySketch`
    over one domain, each with its own seed and budget (the spanner's cut
    sketches).  Updates are buffered and land in three steps:

    Map
        Buffered ``(group, coordinate, value)`` updates are netted per
        coordinate; one :func:`~repro.sketch.kernels.stack_positions_terms`
        pass per block of groups hashes every coordinate with its own
        group's bucket polynomials and weights it by its group's
        fingerprint power.
    Reduce
        Contributions are summed per ``(group, row, bucket)`` cell key:
        in ``int64`` while the busiest cell's sum provably fits, else in
        exact Python integers; fingerprints add mod ``p`` through
        :func:`~repro.sketch.kernels.scatter_sum_mod61`.  Cells that sum
        to zero leave the store.
    Peel
        :meth:`~SparseRecoveryStore.decode` peels the singleton cells of
        every group in rounds over all nonzero cells at once
        (:func:`peel_cells`, which also peels the AGM Borůvka's component
        sums in :meth:`~repro.sketch.columnar.L0SamplerStack.sample_row_sums`).
:class:`NeighborhoodTableStore`
    The neighborhood hash tables on top: an update ``(table, key,
    neighbor, delta)`` is the three coordinates ``3 key + c`` of the
    table's sketch with payloads ``delta``, ``delta * neighbor`` and
    ``delta * z_p^neighbor`` (about ``2^61``, so index sums reach
    ``~2^86`` and take the exact path); decoding reads each recovered
    key's payload as a 1-sparse detector.

Seeds, budgets and bucket counts are the standalone sketches' (the same
``derive_seed`` units), so every stored cell equals the standalone
sketch's cell (its dense ``state_ints()`` holds the group's stored cells
and zeros elsewhere), and decode results are equal —
``tests/sketch/test_table_store.py`` checks this against the scalar
oracle.  The shard wire is what the store holds:
:meth:`~SparseRecoveryStore.sparse_state_ints` ships one ``(key, total,
index sum, fingerprint)`` record per nonzero cell, and
:meth:`~SparseRecoveryStore.load_sparse_state` checks a block whole
before it overwrites the store.  Every group has a *name* (a spanner's
tables are named ``(root, stack, j)``); hash coefficients and
fingerprint bases are looked up by ``(name, budget)`` in a memo the
caller may share between the stores it lays out over the same names,
and derived only on a miss, the first time a group is touched.  The byte-windowed power tables are
built per block of at most :data:`_GROUP_BLOCK` groups and dropped, so
memory follows the nonzero cells, not the group count.

:func:`decode_tables` decodes the tables of many stores at once (the
sparsifier's sub-spanners share pass 2): their tables are gathered into
blocks of at most :data:`_DECODE_BLOCK`, each flushed and peeled as one
store, with its power tables built once.  :meth:`NeighborhoodTableStore.decode` is that decode applied to
a single store.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain
from typing import Callable, Hashable, Sequence

import numpy as np

from repro import obs
from repro.sketch.hashing import MERSENNE_61, KWiseHash
from repro.sketch.kernels import (
    as_field_array,
    build_pow_table,
    mulmod61,
    scatter_sum_mod61,
    stack_positions_terms,
    submod61,
)
from repro.sketch.onesparse import DecodeStatus, OneSparseResult
from repro.sketch.sparse_recovery import (
    _BUCKET_HASH_INDEPENDENCE,
    as_index_array,
    max_abs_int64,
)
from repro.util.rng import derive_seed

__all__ = ["NeighborhoodTableStore", "SparseRecoveryStore", "decode_tables", "peel_cells"]

#: Buffered updates that trigger a map + reduce on the next add.
_PENDING_LIMIT = 1 << 16

#: Distinct groups whose power tables are built at once (bounds memory).
_GROUP_BLOCK = 256

#: Touched tables :func:`decode_tables` flushes and peels at once.  A
#: block pays a few milliseconds of fixed cost, holds ~25 KB per table
#: while it decodes, and grows the field kernels' pooled scratch to its
#: size; at 64 a many-sub-spanner snapshot peaks below decoding store by
#: store, and a small one (16 sub-spanners, n = 16) barely above.
_DECODE_BLOCK = 64

#: An ``int64`` sum is exact while ``terms * max|term|`` stays below this.
_INT64_SAFE = 1 << 62


def _exact_array(values) -> np.ndarray:
    """A value batch as ``int64`` (integer input) or exact Python ints
    (an object array, kept as it is)."""
    if isinstance(values, np.ndarray) and values.dtype == object:
        if values.ndim != 1:
            raise ValueError(f"value batch must be 1-D, got shape {values.shape}")
        return values
    return as_index_array(values)


def _sum_parts(size: int, inverse: np.ndarray, parts) -> np.ndarray:
    """Exact sums into ``size`` slots of the concatenated ``parts``
    (``inverse`` maps every entry to its slot).  ``int64`` parts add in
    ``int64`` when even the busiest slot provably cannot overflow;
    otherwise, and for Python-integer parts, the sums are exact Python
    integers."""
    busiest = int(np.bincount(inverse).max()) if inverse.size else 0
    small, exact = [], []
    offset = 0
    for part in parts:
        where = inverse[offset : offset + part.size]
        offset += part.size
        if part.size:
            (small if part.dtype != object else exact).append((where, part))
    out = np.zeros(size, dtype=np.int64)
    if small:
        if busiest * max(max_abs_int64(part) for _, part in small) < _INT64_SAFE:
            for where, part in small:
                np.add.at(out, where, part)
        else:
            exact.extend((where, part.astype(object)) for where, part in small)
    if exact:
        out = out.astype(object)
        for where, part in exact:
            np.add.at(out, where, part)
    return out


def _unique_pairs(high: np.ndarray, low: np.ndarray):
    """Distinct ``(high, low)`` pairs in sorted order, and each input
    pair's index among them — without packing a pair into one ``int64``
    (``group * n^2`` would overflow at a large universe)."""
    order = np.lexsort((low, high))
    high, low = high[order], low[order]
    fresh = np.r_[True, (high[1:] != high[:-1]) | (low[1:] != low[:-1])]
    inverse = np.empty(order.size, dtype=np.int64)
    inverse[order] = np.cumsum(fresh) - 1
    return high[fresh], low[fresh], inverse


def _net(groups: np.ndarray, coords: np.ndarray, values: np.ndarray):
    """Sum ``values`` per ``(group, coordinate)``; drop the zero sums."""
    groups, coords, inverse = _unique_pairs(groups, coords)
    net = _sum_parts(groups.size, inverse, [values])
    live = net != 0
    return groups[live], coords[live], net[live]


def _blocks(groups: np.ndarray) -> list[slice]:
    """Slices of sorted ``groups`` spanning at most :data:`_GROUP_BLOCK`
    distinct groups each."""
    starts = np.flatnonzero(np.r_[True, groups[1:] != groups[:-1]])
    cuts = starts[::_GROUP_BLOCK].tolist() + [groups.size]
    return [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]


def _positions_terms(coeffs, bases, slots, indices, residues, buckets, top, table=None):
    """:func:`~repro.sketch.kernels.stack_positions_terms` where incidence
    ``t`` belongs to group ``slots[t]`` of ``coeffs`` (``(G, d, k)``) and
    ``bases`` (``G`` fingerprint bases, exponents at most ``top``); the
    power tables are built for one block of groups at a time, unless
    ``table`` already holds all ``G`` groups' (a decode block's)."""
    if table is not None:
        return stack_positions_terms(coeffs, table, indices, residues, buckets, slots)
    order = np.argsort(slots, kind="stable")
    positions = np.empty((coeffs.shape[1], slots.size), dtype=np.int64)
    terms = np.empty(slots.size, dtype=np.uint64)
    sorted_slots = slots[order]
    for block in _blocks(sorted_slots):
        take = order[block]
        local, inverse = np.unique(sorted_slots[block], return_inverse=True)
        positions[:, take], terms[take] = stack_positions_terms(
            coeffs[local],
            build_pow_table(bases[local], top),
            indices[take],
            residues[take],
            buckets,
            inverse,
        )
    return positions, terms


def _same(name):
    """The default ``seed_of``: a group's name is its randomness name."""
    return name


class _GroupRandomness:
    """Per-group hash coefficients, bucket counts and fingerprint bases,
    filled on first touch and shared by clones (pure functions of the
    group names, so filling from any clone is safe).  ``slot[g]`` is
    group ``g``'s row in the filled arrays, ``-1`` until filled."""

    __slots__ = ("slot", "coeffs", "buckets", "bases")

    def __init__(self, num_groups: int, rows: int):
        self.slot = np.full(num_groups, -1, dtype=np.int64)
        self.coeffs = np.zeros((0, rows, _BUCKET_HASH_INDEPENDENCE), dtype=np.uint64)
        self.buckets = np.zeros(0, dtype=np.int64)
        self.bases = np.zeros(0, dtype=np.uint64)


class SparseRecoveryStore:
    """COO state of many same-domain sparse-recovery sketches.

    Parameters
    ----------
    domain_size:
        Coordinates of every group lie in ``[0, domain_size)``.
    budgets:
        Budget ``B`` of each group's sketch; group ``g`` is seed group ``g``.
    name_of:
        ``name_of(g)`` names group ``g``'s sketch (hashable, cheap).
    rows, bucket_factor:
        Shape of every group's sketch, as ``SparseRecoverySketch``.
    seed_of:
        ``seed_of(name)`` is the randomness name the group would be built
        from as a standalone ``SparseRecoverySketch`` (default: the name
        itself); called only for names ``memo`` lacks.
    memo:
        Derived randomness by ``(name, budget)``, filled on first touch.
        Stores of one shape (domain, rows, bucket factor) and one
        ``seed_of`` may share it, so a layout formed again over the same
        names derives nothing; default: private to this store and its
        clones.
    """

    __slots__ = (
        "domain_size",
        "rows",
        "bucket_factor",
        "budgets",
        "stride",
        "_name_of",
        "_seed_of",
        "_memo",
        "_random",
        "_powers",
        "_touched",
        "_pending",
        "_pending_size",
        "_keys",
        "_totals",
        "_index_sums",
        "_fingerprints",
    )

    def __init__(
        self,
        domain_size: int,
        budgets,
        name_of: Callable[[int], Hashable],
        rows: int = 4,
        bucket_factor: float = 2.0,
        *,
        seed_of: Callable[[Hashable], int | str] = _same,
        memo: dict | None = None,
    ):
        self.domain_size = domain_size
        self.rows = rows
        self.bucket_factor = bucket_factor
        self.budgets = np.asarray(budgets, dtype=np.int64)
        top = int(self.budgets.max()) if self.budgets.size else 1
        # Cell key = group * stride + row * buckets + bucket.
        self.stride = rows * self._buckets_for(top)
        self._name_of = name_of
        self._seed_of = seed_of
        self._memo = {} if memo is None else memo
        self._random = _GroupRandomness(self.budgets.size, rows)
        # Power tables of every filled group, prebuilt for a decode block
        # (see NeighborhoodTableStore._gathered); None: built per block.
        self._powers: np.ndarray | None = None
        self._touched: set[int] = set()
        self._pending: list[tuple[np.ndarray, ...]] = []
        self._pending_size = 0
        self._keys = np.zeros(0, dtype=np.int64)
        self._totals = np.zeros(0, dtype=object)
        self._index_sums = np.zeros(0, dtype=object)
        self._fingerprints = np.zeros(0, dtype=np.uint64)

    def _buckets_for(self, budget: int) -> int:
        """Buckets per row of a budget-``budget`` group's sketch."""
        return max(4, math.ceil(self.bucket_factor * budget))

    @property
    def num_groups(self) -> int:
        """Number of sketches (seed groups) in the layout."""
        return int(self.budgets.size)

    def _slots(self, groups: np.ndarray) -> np.ndarray:
        """Randomness rows of ``groups``, filling new groups' from the
        memo or, on a miss, deriving them."""
        random = self._random
        fresh = np.unique(groups[random.slot[groups] < 0])
        if fresh.size:
            entries, derived = [], 0
            for group, budget in zip(fresh.tolist(), self.budgets[fresh].tolist()):
                key = (self._name_of(group), budget)
                entry = self._memo.get(key)
                if entry is None:
                    entry = self._memo[key] = self._derive(self._seed_of(key[0]), budget)
                    derived += 1
                entries.append(entry)
            obs.TRACER.count("spanner.pass2.derived_groups", derived)
            coeffs, buckets, bases = zip(*entries)
            self._fill(fresh, np.array(coeffs, dtype=np.uint64),
                       np.array(buckets, dtype=np.int64), np.array(bases, dtype=np.uint64))
        return random.slot[groups]

    def _fill(self, groups, coeffs, buckets, bases) -> None:
        """Install randomness rows for unfilled ``groups`` (distinct)."""
        random = self._random
        used = random.buckets.size
        random.slot[groups] = np.arange(used, used + groups.size, dtype=np.int64)
        random.coeffs = np.concatenate([random.coeffs, coeffs])
        random.buckets = np.concatenate([random.buckets, buckets])
        random.bases = np.concatenate([random.bases, bases])

    def _derive(self, seed, budget: int) -> tuple:
        """``SparseRecoverySketch``'s derivation, unit by unit: the bucket
        hashes' coefficients, the bucket count and the fingerprint base
        (tuples, so memo entries are immutable)."""
        key = derive_seed(seed, "sparse-recovery", self.domain_size, budget, self.rows)
        coeffs = tuple(
            KWiseHash(_BUCKET_HASH_INDEPENDENCE, derive_seed(key, "row", r)).coefficients
            for r in range(self.rows)
        )
        return coeffs, self._buckets_for(budget), 1 + key % (MERSENNE_61 - 1)

    def _cells(self, groups: np.ndarray, coords: np.ndarray, residues: np.ndarray):
        """Cell keys ``(rows, n)`` of coordinates ``coords`` of ``groups``
        and their fingerprint terms ``residues * z^coord``.  Bucket
        hashes come back raw (reduction modulo ``p`` is the identity on
        field values) and are reduced by each group's own bucket count."""
        slots = self._slots(groups)
        raw, terms = _positions_terms(
            self._random.coeffs, self._random.bases, slots, coords, residues,
            MERSENNE_61, self.domain_size - 1, self._powers,
        )
        buckets = self._random.buckets[slots]
        base = groups * np.int64(self.stride)
        keys = np.stack([base + r * buckets + raw[r] % buckets for r in range(self.rows)])
        return keys, terms

    # ------------------------------------------------------------------
    # Map and reduce
    # ------------------------------------------------------------------

    def touch(self, groups) -> None:
        """Count ``groups`` as materialized (allocated by the scalar
        path) even if nothing nonzero ever lands in them."""
        self._touched.update(np.unique(as_index_array(groups)).tolist())

    def add(self, groups, coords, values) -> None:
        """Apply ``x_groups[t][coords[t]] += values[t]`` for every ``t``
        (buffered until a read).  ``values`` is an integer array, or an
        object array of exact Python integers."""
        groups = as_index_array(groups)
        coords = as_index_array(coords)
        values = _exact_array(values)
        if not groups.shape == coords.shape == values.shape:
            raise ValueError("groups, coords, values must be of equal length")
        if groups.size == 0:
            return
        if int(groups.min()) < 0 or int(groups.max()) >= self.num_groups:
            raise IndexError(f"group batch leaves [0, {self.num_groups})")
        if int(coords.min()) < 0 or int(coords.max()) >= self.domain_size:
            raise IndexError(f"coordinate batch leaves [0, {self.domain_size})")
        self.touch(groups)
        self._pending.append((groups, coords, values))
        self._pending_size += groups.size
        if self._pending_size >= _PENDING_LIMIT:
            self.flush()

    def flush(self) -> None:
        """Map the buffered updates to cells and reduce them in."""
        if not self._pending:
            return
        with obs.TRACER.span("spanner.pass2.reduce"):
            pending, self._pending, self._pending_size = self._pending, [], 0
            # Net per (group, coordinate), int64 and exact updates apart
            # so the int64 ones stay int64; canceled updates never hash.
            netted = []
            for exact in (False, True):
                parts = [part for part in pending if (part[2].dtype == object) == exact]
                if parts:
                    netted.append(_net(*(np.concatenate(p) for p in zip(*parts))))
            groups = np.concatenate([part[0] for part in netted])
            coords = np.concatenate([part[1] for part in netted])
            if groups.size == 0:
                return
            residues = np.concatenate([as_field_array(part[2]) for part in netted])
            cells, terms = self._cells(groups, coords, residues)
            contributions, start = [], 0
            for _, part_coords, values in netted:
                stop = start + values.size
                if values.dtype == object or (
                    max_abs_int64(values) * max(self.domain_size - 1, 1) >= _INT64_SAFE
                ):
                    products = values.astype(object) * part_coords.astype(object)
                else:
                    products = values * part_coords
                contributions.append((
                    cells[:, start:stop].reshape(-1),
                    np.tile(values, self.rows),
                    np.tile(products, self.rows),
                    np.tile(terms[start:stop], self.rows),
                ))
                start = stop
            self._merge(contributions)

    def _merge(self, parts) -> None:
        """Reduce ``(cell keys, totals, index sums, fingerprint terms)``
        parts into the stored cells by cell key; zero cells drop."""
        parts = [(self._keys, self._totals, self._index_sums, self._fingerprints)] + parts
        unique, inverse = np.unique(
            np.concatenate([part[0] for part in parts]), return_inverse=True
        )
        totals = _sum_parts(unique.size, inverse, [part[1] for part in parts]).astype(object)
        index_sums = _sum_parts(unique.size, inverse, [part[2] for part in parts]).astype(object)
        fingerprints = scatter_sum_mod61(
            unique.size, inverse, np.concatenate([part[3] for part in parts])
        )
        alive = (totals != 0) | (index_sums != 0) | (fingerprints != 0)
        self._keys = unique[alive]
        self._totals = totals[alive]
        self._index_sums = index_sums[alive]
        self._fingerprints = fingerprints[alive]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def touched_groups(self) -> list[int]:
        """Sorted groups ever touched (the scalar path's materialized set)."""
        return sorted(self._touched)

    def space_words(self, groups=None) -> int:
        """Words ``groups`` (default: the touched ones) charge in the
        paper's accounting — each the standalone sketch's
        ``space_words()``: three planes of every cell, the bucket
        hashes, and the fingerprint base."""
        groups = self._touched if groups is None else groups
        return sum(
            3 * self.rows * self._buckets_for(int(self.budgets[group]))
            + self.rows * _BUCKET_HASH_INDEPENDENCE + 1
            for group in groups
        )

    # ------------------------------------------------------------------
    # Wire, linearity, copies
    # ------------------------------------------------------------------

    def sparse_state_ints(self) -> list[int]:
        """The stored cells, ``[count, (key, total, index sum,
        fingerprint) ...]`` in ascending key order, ``key = group *
        stride + row * buckets + bucket``.  Zero cells are never stored,
        so the block is a function of the summarized vectors: every
        chunking and engine emits the same ints."""
        self.flush()
        flat = [int(self._keys.size)]
        flat.extend(chain.from_iterable(zip(
            self._keys.tolist(),
            self._totals.tolist(),
            self._index_sums.tolist(),
            self._fingerprints.tolist(),
        )))
        return flat

    def load_sparse_state(self, values: list[int], cursor: int = 0) -> int:
        """Inverse of :meth:`sparse_state_ints` from ``values[cursor]``;
        returns the cursor past the block.

        The whole block is checked before any state changes: the count
        fits, keys strictly increase, each key names a cell of a group
        of the layout (below that group's ``rows * buckets``), every
        fingerprint is a residue in ``[0, p)`` and no cell is all-zero.
        The block then overwrites the store: cells it lacks are zero,
        buffered updates are dropped, and its groups count as touched.
        """
        if not 0 <= cursor < len(values):
            raise ValueError("cell block ends before its count")
        count = int(values[cursor])
        end = cursor + 1 + 4 * count
        if count < 0 or end > len(values):
            raise ValueError(f"cell count {count} overruns the wire")
        records = values[cursor + 1 : end]
        try:
            keys = np.array(records[0::4], dtype=np.int64)
            fingerprints = np.array(records[3::4], dtype=np.int64)
        except OverflowError as error:
            raise ValueError("cell key or fingerprint leaves int64") from error
        totals = np.array(records[1::4], dtype=object)
        index_sums = np.array(records[2::4], dtype=object)
        groups = keys // np.int64(self.stride)
        if count:
            if np.any(keys[1:] <= keys[:-1]):
                raise ValueError("cell keys must strictly increase")
            if keys[0] < 0 or groups[-1] >= self.num_groups:
                raise ValueError(f"cell key names a group outside [0, {self.num_groups})")
            budgets, which = np.unique(self.budgets[groups], return_inverse=True)
            sizes = np.array(
                [self.rows * self._buckets_for(budget) for budget in budgets.tolist()],
                dtype=np.int64,
            )
            if np.any(keys - groups * np.int64(self.stride) >= sizes[which]):
                raise ValueError("cell key lies past its group's cells")
            if np.any((fingerprints < 0) | (fingerprints >= MERSENNE_61)):
                raise ValueError("cell fingerprint outside [0, p)")
            if not np.all((totals != 0) | (index_sums != 0) | (fingerprints != 0)):
                raise ValueError("an all-zero cell is on the wire")
        self._pending, self._pending_size = [], 0
        self._keys, self._totals, self._index_sums = keys, totals, index_sums
        self._fingerprints = fingerprints.astype(np.uint64)
        self._touched.update(np.unique(groups).tolist())
        return end

    def combine(self, other: "SparseRecoveryStore") -> None:
        """In-place ``self += other`` group by group; the layouts (and
        hence the seeds the caller derives) must match."""
        if (
            self.domain_size != other.domain_size
            or self.rows != other.rows
            or self.bucket_factor != other.bucket_factor
            or not np.array_equal(self.budgets, other.budgets)
        ):
            raise ValueError("cannot combine stores with different layouts")
        self.flush()
        other.flush()
        self._merge([(other._keys, other._totals, other._index_sums, other._fingerprints)])
        self._touched |= other._touched

    def clone(self) -> "SparseRecoveryStore":
        """Independent copy of the cells; derived randomness is shared."""
        clone = object.__new__(SparseRecoveryStore)
        for name in (
            "domain_size", "rows", "bucket_factor", "budgets", "stride",
            "_name_of", "_seed_of", "_memo", "_random", "_powers", "_pending_size",
        ):
            setattr(clone, name, getattr(self, name))
        clone._touched = set(self._touched)
        clone._pending = list(self._pending)  # buffered arrays are never mutated
        clone._keys = self._keys.copy()
        clone._totals = self._totals.copy()
        clone._index_sums = self._index_sums.copy()
        clone._fingerprints = self._fingerprints.copy()
        return clone

    # ------------------------------------------------------------------
    # Peel
    # ------------------------------------------------------------------

    def decode(self, groups=None) -> dict[int, dict[int, int] | None]:
        """Decode ``groups`` (default: every touched group) at once:
        ``{group: {coordinate: value}}``, ``None`` for a group that
        leaves a residual — exactly ``SparseRecoverySketch.decode()``
        per group."""
        groups = self.touched_groups() if groups is None else sorted(set(groups))
        found_groups, found_coords, found_values, failed = self.peel(groups)
        results: dict[int, dict[int, int] | None] = {
            group: (None if group in failed else {}) for group in groups
        }
        for group, coord, value in zip(
            found_groups.tolist(), found_coords.tolist(), found_values.tolist()
        ):
            if results[group] is not None:
                results[group][coord] = value
        return results

    def peel(self, groups: list[int]):
        """Peel the cells of ``groups``: ``(groups, coordinates, values)``
        of every recovered nonzero coordinate (values exact), and the set
        of groups that left a residual — :func:`peel_cells` over the
        groups' stored cells."""
        self.flush()
        stride = np.int64(self.stride)
        select = np.isin(self._keys // stride, np.asarray(groups, dtype=np.int64))
        keys = self._keys[select]
        obs.TRACER.count("spanner.pass2.cells", int(keys.size))
        if obs.TRACER.enabled:
            obs.TRACER.count("spanner.pass2.tables", np.unique(keys // stride).size)
        with obs.TRACER.span("spanner.pass2.peel"):
            found_groups, found_coords, found_values, failed = peel_cells(
                keys,
                self._totals[select],
                self._index_sums[select],
                self._fingerprints[select],
                self.stride,
                self.rows,
                self.domain_size,
                lambda owners, coords: self._cells(
                    owners, coords, np.ones(coords.size, dtype=np.uint64)
                ),
            )
        return found_groups, found_coords, found_values, set(failed.tolist())


def peel_cells(keys, totals, index_sums, fingerprints, stride, rows, domain_size, cells_of):
    """Peel many sparse-recovery sketches at once, from their nonzero cells.

    Cell ``keys`` are sorted ``owner * stride + cell``; ``totals`` and
    ``index_sums`` are exact object arrays (Python integers),
    ``fingerprints`` ``uint64`` residues.  ``cells_of(owners, coords)``
    returns the ``(rows, m)`` cell keys of each coordinate in its
    owner's sketch and the owner's fingerprint power ``z^coord``.
    Returns ``(owners, coordinates, values)`` of every recovered nonzero
    coordinate (values exact) and the sorted owners that left a
    residual — per owner exactly ``SparseRecoverySketch.decode()``: an
    owner with a residual failed, one without decoded to its recovered
    coordinates (none: the zero vector).

    Rounds over all the owners' nonzero cells at once: a round verifies
    its candidate cells as 1-sparse (divisibility, range, fingerprint —
    each distinct coordinate's power computed once), extracts each
    verified coordinate once, and subtracts it from its cell in every
    row; the cells it changed are the next round's candidates.  Every
    verified extraction removes its coordinate completely, so the order
    is immaterial, as in the scalar queue-based peel.  The arrays are
    the caller's to lose: they are updated in place.
    """
    stride = np.int64(stride)
    found_owners, found_coords, found_values = [], [], []
    candidates = np.flatnonzero(totals != 0)
    while candidates.size:
        t = totals[candidates]
        live = t != 0
        candidates, t = candidates[live], t[live]
        s = index_sums[candidates]
        whole = (s % t) == 0
        candidates, t, s = candidates[whole], t[whole], s[whole]
        coords = s // t
        inside = (coords >= 0) & (coords < domain_size)
        candidates, t = candidates[inside], t[inside]
        if candidates.size == 0:
            break
        u_owners, u_coords, inverse = _unique_pairs(
            keys[candidates] // stride, coords[inside].astype(np.int64)
        )
        cells, powers = cells_of(u_owners, u_coords)
        terms = mulmod61(as_field_array(t), powers[inverse])
        verified = terms == fingerprints[candidates]
        if not verified.any():
            break
        # A coordinate alone in several of its cells extracts once.
        _, first = np.unique(inverse[verified], return_index=True)
        pick = np.flatnonzero(verified)[first]
        claimed = inverse[pick]
        t, terms = t[pick], terms[pick]
        found_owners.append(u_owners[claimed])
        found_coords.append(u_coords[claimed])
        found_values.append(t)
        cells = cells[:, claimed].reshape(-1)
        # A target absent from the cells (only a fingerprint collision
        # can name one) joins them as a zero cell.
        targets = np.searchsorted(keys, cells)
        missing = keys[np.minimum(targets, keys.size - 1)] != cells
        if missing.any():
            missing = np.unique(cells[missing])
            at = np.searchsorted(keys, missing)
            keys = np.insert(keys, at, missing)
            totals = np.insert(totals, at, 0)
            index_sums = np.insert(index_sums, at, 0)
            fingerprints = np.insert(fingerprints, at, np.uint64(0))
            targets = np.searchsorted(keys, cells)
        np.subtract.at(totals, targets, np.tile(t, rows))
        np.subtract.at(index_sums, targets, np.tile(t * u_coords[claimed].astype(object), rows))
        changed, where = np.unique(targets, return_inverse=True)
        fingerprints[changed] = submod61(
            fingerprints[changed],
            scatter_sum_mod61(changed.size, where, np.tile(terms, rows)),
        )
        candidates = changed
    residual = (totals != 0) | (index_sums != 0) | (fingerprints != 0)
    failed = np.unique(keys[residual] // stride)
    if not found_owners:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=object), failed
    # A re-extracted coordinate sums; one that nets to zero drops.
    owners_out, coords_out, values_out = _net(
        np.concatenate(found_owners),
        np.concatenate(found_coords),
        np.concatenate([value.astype(object) for value in found_values]),
    )
    return owners_out, coords_out, values_out.astype(object), failed


def _table_sketch_seed(seed_of: Callable[[Hashable], int | str], name: Hashable) -> int:
    """The seed a standalone ``NeighborhoodHashTable`` gives its sketch."""
    return derive_seed(derive_seed(seed_of(name), "table"), "linear-hash-table")


class NeighborhoodTableStore:
    """COO state of many neighborhood hash tables over one vertex domain.

    Parameters
    ----------
    num_vertices:
        Key and neighbor domain ``[0, num_vertices)`` of every table.
    capacities:
        Key capacity of each table; table ``g`` is seed group ``g``.
    name_of:
        ``name_of(g)`` names table ``g`` (hashable, cheap).
    rows, bucket_factor:
        Shape of every table's outer sparse-recovery sketch.
    seed_of:
        ``seed_of(name)`` is the randomness name the table would be built
        from as a standalone ``NeighborhoodHashTable`` (default: the name).
    memo:
        Derived randomness of the tables, as :class:`SparseRecoveryStore`'s
        (payload bases under ``(name, None)``); default: private.
    """

    __slots__ = (
        "num_vertices", "_name_of", "_seed_of", "_memo", "_sketches", "_payload_bases",
        "_payload_table", "_pending", "_pending_size",
    )

    def __init__(
        self,
        num_vertices: int,
        capacities,
        name_of: Callable[[int], Hashable],
        rows: int = 3,
        bucket_factor: float = 2.0,
        *,
        seed_of: Callable[[Hashable], int | str] = _same,
        memo: dict | None = None,
    ):
        self.num_vertices = num_vertices
        self._name_of = name_of
        self._seed_of = seed_of
        self._memo = {} if memo is None else memo
        # Payload component c of key v is coordinate 3 v + c.
        self._sketches = SparseRecoveryStore(
            3 * num_vertices,
            3 * np.asarray(capacities, dtype=np.int64),
            name_of,
            rows=rows,
            bucket_factor=bucket_factor,
            seed_of=partial(_table_sketch_seed, seed_of),
            memo=self._memo,
        )
        # Filled on first use and shared by clones; 0 = not yet (every
        # base lies in [1, p)).
        self._payload_bases = np.zeros(self._sketches.num_groups, dtype=np.uint64)
        # Every table's payload power table, prebuilt for a decode block.
        self._payload_table: np.ndarray | None = None
        self._pending: list[tuple[np.ndarray, ...]] = []
        self._pending_size = 0

    @property
    def num_groups(self) -> int:
        """Number of tables in the layout."""
        return self._sketches.num_groups

    def _payload_bases_of(self, groups: np.ndarray) -> np.ndarray:
        """Each table's payload fingerprint base (its standalone
        payload-template detector's ``z``), from the memo or derived."""
        bases = self._payload_bases
        for group in np.unique(groups[bases[groups] == 0]).tolist():
            key = (self._name_of(group), None)
            base = self._memo.get(key)
            if base is None:
                template = derive_seed(self._seed_of(key[0]), "payload-template")
                base = self._memo[key] = 1 + derive_seed(template, "onesparse-z") % (MERSENNE_61 - 1)
            bases[group] = base
        return bases[groups]

    def _payload_powers(self, groups: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
        """``z_p^neighbor mod p`` in each table's payload base."""
        tables, slots = np.unique(groups, return_inverse=True)
        _, powers = _positions_terms(
            np.zeros((tables.size, 1, 1), dtype=np.uint64),  # hashes nothing
            self._payload_bases_of(tables),
            slots, neighbors, np.ones(neighbors.size, dtype=np.uint64), 1,
            self.num_vertices - 1,
            None if self._payload_table is None else self._payload_table[tables],
        )
        return powers

    def add(self, groups, keys, neighbors, deltas) -> None:
        """Record ``(neighbors[t], keys[t]) += deltas[t]`` in table
        ``groups[t]`` for every ``t`` — the batched
        ``NeighborhoodHashTable.add_neighbor`` (buffered until a read).
        Every named table counts as touched, even when its deltas net to
        zero."""
        groups = as_index_array(groups)
        keys = as_index_array(keys)
        neighbors = as_index_array(neighbors)
        deltas = as_index_array(deltas)
        if not groups.shape == keys.shape == neighbors.shape == deltas.shape:
            raise ValueError("groups, keys, neighbors, deltas must be of equal length")
        if groups.size == 0:
            return
        for name, values, top in (
            ("group", groups, self.num_groups),
            ("key", keys, self.num_vertices),
            ("neighbor", neighbors, self.num_vertices),
        ):
            if int(values.min()) < 0 or int(values.max()) >= top:
                raise IndexError(f"{name} batch leaves [0, {top})")
        self._sketches.touch(groups)
        self._pending.append((groups, keys, neighbors, deltas))
        self._pending_size += groups.size
        if self._pending_size >= _PENDING_LIMIT:
            self.flush()

    def _pending_arrays(self) -> tuple[np.ndarray, ...]:
        """The buffered ``(groups, keys, neighbors, deltas)`` as one block
        (kept as the buffer, so a second read concatenates nothing)."""
        if not self._pending:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty, empty
        if len(self._pending) > 1:
            self._pending = [tuple(np.concatenate(part) for part in zip(*self._pending))]
        return self._pending[0]

    def flush(self) -> None:
        """Expand the buffered incidences into sketch coordinates and
        land them (see :meth:`SparseRecoveryStore.flush`)."""
        if self._pending:
            groups, keys, neighbors, deltas = self._pending_arrays()
            self._pending = []
            self._pending_size = 0
            # Net per (table, key, neighbor) before any power is taken.
            n = np.int64(self.num_vertices)
            groups, edges, net = _net(groups, keys * n + neighbors, deltas)
            keys, neighbors = np.divmod(edges, n)
            if groups.size:
                coords = 3 * keys
                # Payloads delta and delta * neighbor stay int64 while
                # |delta| n fits; delta * z_p^neighbor (~2^61) stays exact.
                if net.dtype == object or max_abs_int64(net) * self.num_vertices >= _INT64_SAFE:
                    net = net.astype(object)
                self._sketches.add(
                    np.concatenate([groups, groups]),
                    np.concatenate([coords, coords + 1]),
                    np.concatenate([net, net * neighbors.astype(net.dtype)]),
                )
                self._sketches.add(
                    groups,
                    coords + 2,
                    net.astype(object) * self._payload_powers(groups, neighbors).astype(object),
                )
        self._sketches.flush()

    # ------------------------------------------------------------------
    # Reads, wire, linearity, copies (on the sketch store)
    # ------------------------------------------------------------------

    def touched_groups(self) -> list[int]:
        """Sorted tables ever touched (the scalar path's materialized set)."""
        return self._sketches.touched_groups()

    def sparse_state_ints(self) -> list[int]:
        """The tables' stored cells: table ``g`` is group ``g`` of
        :meth:`SparseRecoveryStore.sparse_state_ints`."""
        self.flush()
        return self._sketches.sparse_state_ints()

    def space_words(self) -> int:
        """Words the touched tables charge in the paper's accounting —
        each the standalone table's ``space_words()`` (its sketch plus
        the payload detector's four words)."""
        return self._sketches.space_words() + 4 * len(self._sketches.touched_groups())

    def load_sparse_state(self, values: list[int], cursor: int = 0) -> int:
        """Inverse of :meth:`sparse_state_ints`, checked and then
        overwriting as :meth:`SparseRecoveryStore.load_sparse_state`
        (buffered incidences are dropped too); returns the cursor."""
        cursor = self._sketches.load_sparse_state(values, cursor)
        self._pending, self._pending_size = [], 0
        return cursor

    def combine(self, other: "NeighborhoodTableStore") -> None:
        """In-place ``self += other`` table by table (layouts must match)."""
        if self.num_vertices != other.num_vertices:
            raise ValueError("cannot combine stores with different layouts")
        self.flush()
        other.flush()
        self._sketches.combine(other._sketches)

    def clone(self) -> "NeighborhoodTableStore":
        """Independent copy of the cells; derived randomness is shared."""
        clone = object.__new__(NeighborhoodTableStore)
        for name in (
            "num_vertices", "_name_of", "_seed_of", "_memo", "_payload_bases", "_payload_table",
        ):
            setattr(clone, name, getattr(self, name))
        clone._sketches = self._sketches.clone()
        clone._pending = list(self._pending)
        clone._pending_size = self._pending_size
        return clone

    def decode(self) -> dict[int, dict[int, OneSparseResult] | None]:
        """Decode every touched table: :func:`decode_tables` of this store.

        Returns ``{group: results}``: ``None`` for an undecodable table,
        otherwise each recovered key's payload
        :class:`~repro.sketch.onesparse.OneSparseResult` — exactly
        ``NeighborhoodHashTable.decode_neighbors()`` per table.
        """
        return decode_tables([self])[0]

    @staticmethod
    def _gathered(pieces) -> "NeighborhoodTableStore":
        """One store holding the tables ``pieces`` names — ``(store,
        sorted touched groups)`` — renumbered ``0, 1, ...`` in piece
        order, with their buffered updates, cells and randomness: a flush
        and peel of it is each table's flush and peel in its own store.
        The sources only gain derived randomness.  The block's power
        tables are built once here, for its flush and every peel round."""
        shape = pieces[0][0].num_vertices, pieces[0][0]._sketches.rows
        if any((store.num_vertices, store._sketches.rows) != shape for store, _ in pieces):
            raise ValueError("cannot decode tables of different shapes together")
        merged = NeighborhoodTableStore(
            shape[0],
            np.concatenate([store._sketches.budgets[groups] // 3 for store, groups in pieces]),
            None,  # never derives: every table it reads is filled below
            rows=shape[1],
        )
        sketches = merged._sketches
        sketches.stride = stride = max(store._sketches.stride for store, _ in pieces)
        sketches.touch(np.arange(sketches.num_groups))
        cells, pending, filled = [], [], []
        offset = 0
        for store, groups in pieces:
            source = store._sketches
            source.flush()  # empty outside a table flush
            low, high = int(groups[0]), int(groups[-1]) + 1
            begin, end = np.searchsorted(source._keys, [low * source.stride, high * source.stride])
            keys = source._keys[begin:end]
            owners = keys // source.stride
            cells.append((
                (offset + np.searchsorted(groups, owners)) * stride + keys - owners * source.stride,
                source._totals[begin:end],
                source._index_sums[begin:end],
                source._fingerprints[begin:end],
            ))
            buffered = store._pending_arrays()
            inside = (buffered[0] >= low) & (buffered[0] < high)
            buffered = [part[inside] for part in buffered]
            needed = np.union1d(owners, buffered[0])
            buffered[0] = offset + np.searchsorted(groups, buffered[0])
            pending.append(buffered)
            slots = source._slots(needed)
            here = offset + np.searchsorted(groups, needed)
            merged._payload_bases[here] = store._payload_bases_of(needed)
            random = source._random
            filled.append((here, random.coeffs[slots], random.buckets[slots], random.bases[slots]))
            offset += groups.size
        sketches._fill(*(np.concatenate(part) for part in zip(*filled)))
        sketches._powers = build_pow_table(sketches._random.bases, sketches.domain_size - 1)
        merged._payload_table = build_pow_table(merged._payload_bases, merged.num_vertices - 1)
        sketches._keys, sketches._totals, sketches._index_sums, sketches._fingerprints = (
            np.concatenate(part) for part in zip(*cells)
        )
        buffered = tuple(np.concatenate(part) for part in zip(*pending))
        if buffered[0].size:
            merged._pending, merged._pending_size = [buffered], int(buffered[0].size)
        return merged

    def _decode_all(self) -> dict[int, dict[int, OneSparseResult] | None]:
        """Flush, then decode every touched table in one batched peel."""
        self.flush()
        groups = self._sketches.touched_groups()
        found_groups, coords, values, failed = self._sketches.peel(groups)
        results: dict[int, dict[int, OneSparseResult] | None] = {
            group: (None if group in failed else {}) for group in groups
        }
        keep = np.array([group not in failed for group in found_groups.tolist()], dtype=bool)
        if not keep.any():
            return results
        found_groups, coords, values = found_groups[keep], coords[keep], values[keep]
        # Assemble each recovered key's payload (p0, p1, p2).
        keys, component = np.divmod(coords, 3)
        tables, table_keys, where = _unique_pairs(found_groups, keys)
        payloads = np.zeros((3, tables.size), dtype=object)
        payloads[component, where] = values
        p0, p1, p2 = payloads
        fingerprint = p2 % MERSENNE_61
        zero = (p0 == 0) & (p1 == 0) & (fingerprint == 0)
        # OneSparseDetector.decode, vectorized over the payloads.
        candidate = np.flatnonzero(p0 != 0)
        candidate = candidate[(p1[candidate] % p0[candidate]) == 0]
        neighbor = p1[candidate] // p0[candidate]
        inside = (neighbor >= 0) & (neighbor < self.num_vertices)
        candidate, neighbor = candidate[inside], neighbor[inside].astype(np.int64)
        expected = mulmod61(
            as_field_array(p0[candidate]), self._payload_powers(tables[candidate], neighbor)
        )
        hit = expected == fingerprint[candidate].astype(np.uint64)
        one_sparse = dict(zip(candidate[hit].tolist(), neighbor[hit].tolist()))
        not_one = OneSparseResult(DecodeStatus.NOT_ONE_SPARSE)
        for position, (table, key) in enumerate(zip(tables.tolist(), table_keys.tolist())):
            if zero[position]:
                continue
            neighbor_id = one_sparse.get(position)
            results[table][key] = (
                not_one
                if neighbor_id is None
                else OneSparseResult(DecodeStatus.ONE_SPARSE, neighbor_id, int(p0[position]))
            )
        return results


def _table_blocks(stores: Sequence[NeighborhoodTableStore]):
    """Blocks of at most :data:`_DECODE_BLOCK` touched tables, each a list
    of ``(store index, sorted groups)``; a store's tables continue into
    the next block when they overflow one."""
    block, room = [], _DECODE_BLOCK
    for index, store in enumerate(stores):
        groups = np.array(store.touched_groups(), dtype=np.int64)
        start = 0
        while start < groups.size:
            take = groups[start : start + room]
            block.append((index, take))
            start += take.size
            room -= take.size
            if room == 0:
                yield block
                block, room = [], _DECODE_BLOCK
    if block:
        yield block


def decode_tables(
    stores: Sequence[NeighborhoodTableStore],
) -> list[dict[int, dict[int, OneSparseResult] | None]]:
    """Decode every touched table of every store: entry ``i`` is exactly
    ``stores[i].decode()``.

    The tables are gathered into blocks of at most :data:`_DECODE_BLOCK`
    (so transient memory stays bounded however many stores there are),
    and each block is flushed and peeled as one store: one netting, one
    hash-and-reduce and one round-by-round peel serve every table in it,
    where decoding store by store pays those fixed costs per store.
    Every store must share the vertex domain and sketch rows; buffered
    updates stay buffered in the stores.
    """
    results: list[dict] = [{} for _ in stores]
    for block in _table_blocks(stores):
        obs.TRACER.count("spanner.pass2.decode_blocks")
        decoded = NeighborhoodTableStore._gathered(
            [(stores[index], groups) for index, groups in block]
        )._decode_all()
        owners = [(index, group) for index, groups in block for group in groups.tolist()]
        for position, result in decoded.items():
            index, group = owners[position]
            results[index][group] = result
    return results
