"""Linear-sketching substrate.

Every structure here is a *linear* function of the summarized vector:
sketches built from the same seed can be added and subtracted, which is
the property the paper's graph algorithms exploit (summing per-vertex
sketches over a cluster, collapsing supernodes, subtracting recovered
edge sets).

Contents
--------
:class:`KWiseHash`, :class:`NestedSampler`
    limited-independence hashing; nested geometric samples.
:class:`OneSparseDetector`
    exact 0-vs-1-sparse classification with field fingerprints.
:class:`SparseRecoverySketch`
    the paper's ``SKETCH_B`` / ``DECODE`` (Theorem 8 interface).
:class:`DistinctElementsSketch`
    ``L_0`` estimation (Theorem 9 interface).
:class:`L0Sampler`
    sample one nonzero coordinate (AGM building block).
:class:`LinearHashTable`, :class:`NeighborhoodHashTable`
    the second-pass hash tables ``H^u_j`` of Algorithm 2 (scalar oracle).
:class:`NeighborhoodTableStore`, :class:`SparseRecoveryStore`
    many same-domain tables / sketches as the seed groups of one store
    holding nonzero cells only (:mod:`repro.sketch.table_store`).
:class:`SketchStack`, :class:`L0SamplerStack`
    columnar storage of many same-shaped sketches as one 2-D state
    array — hashes evaluated once per (coordinate, stack), one
    flattened scatter for all rows (:mod:`repro.sketch.columnar`).
:mod:`repro.sketch.kernels`
    exact vectorized mod-``(2^61 - 1)`` field arithmetic (pluggable
    backends) behind every batch path.

Two update engines
------------------
Every sketch's scalar ``update`` is the oracle; the columnar stacks are
the production engine for streams, and the spanner's pass-2 tables and
cut sketches live in nonzero-cells-only grouped stores
(:mod:`repro.sketch.table_store`).  All paths land in bit-identical
state (``tests/sketch/test_batched.py``, ``tests/sketch/test_columnar.py``,
``tests/sketch/test_table_store.py``), so they mix freely — including
across ``combine``::

    from repro.sketch import SketchStack, SparseRecoverySketch

    a = SparseRecoverySketch(domain_size=10_000, budget=8, seed="demo")
    b = SketchStack(1, 10_000, 8, "demo")  # one row, same seed and shape

    a.update(42, +1)                      # one coordinate at a time
    a.update(42, -1)
    b.scatter([0] * 8, range(8), [1] * 8)  # vectorized over the batch

    a.combine(b.row_sketch(0))            # same seed => summable
    assert a.decode() == {i: 1 for i in range(8)}

See ``docs/performance.md`` for measured numbers.

The ``clone()`` contract
------------------------
Every sketch class exposes ``clone() -> same type``: an independent copy
of the *dynamic* state (cells, counters, fingerprints) that shares the
immutable seed-derived randomness (hash families, samplers, fingerprint
bases).  Mutating the original after cloning never affects the clone and
vice versa — this is what lets the live sketch-store service
(:mod:`repro.service`) finalize snapshot copies while ingest continues.
The hash families define ``__deepcopy__`` as identity, so even a naive
``copy.deepcopy`` of a sketch preserves the interning memory win and
cannot accidentally fork shared randomness.
"""

from repro.sketch.columnar import L0SamplerStack, SketchStack
from repro.sketch.countsketch import CountSketch
from repro.sketch.distinct import DistinctElementsSketch
from repro.sketch.hashing import MERSENNE_61, KWiseHash, NestedSampler
from repro.sketch.l0sampler import L0Sampler
from repro.sketch.linear_hash_table import LinearHashTable, NeighborhoodHashTable
from repro.sketch.onesparse import DecodeStatus, OneSparseDetector, OneSparseResult
from repro.sketch.serialize import (
    deserialize_sketch,
    pack_ints,
    serialize_sketch,
    serialized_size_bytes,
    unpack_ints,
)
from repro.sketch.sparse_recovery import SparseRecoverySketch
from repro.sketch.table_store import NeighborhoodTableStore, SparseRecoveryStore

__all__ = [
    "MERSENNE_61",
    "KWiseHash",
    "NestedSampler",
    "DecodeStatus",
    "OneSparseDetector",
    "OneSparseResult",
    "SparseRecoverySketch",
    "CountSketch",
    "DistinctElementsSketch",
    "L0Sampler",
    "SketchStack",
    "L0SamplerStack",
    "LinearHashTable",
    "NeighborhoodHashTable",
    "NeighborhoodTableStore",
    "SparseRecoveryStore",
    "pack_ints",
    "unpack_ints",
    "serialized_size_bytes",
    "serialize_sketch",
    "deserialize_sketch",
]
