"""The linear hash tables ``H^u_j`` of Algorithm 2 (second pass).

Section 3.2 outlines the structure: a table that supports recovering up
to ``K`` values indexed by vertices, "by treating the sketches associated
with nodes v in V as poly(log n)-length bit numbers and sketching this
vector x in R^V using SKETCH_{~O(n^{(i+1)/k})}(x)".

We implement exactly that idea as a reusable substrate:

* :class:`LinearHashTable` — a linear map from ``(key, payload slot)``
  pairs to a sparse-recovery sketch over the product domain.  Decoding
  recovers the full ``key -> payload vector`` map whenever at most
  ``capacity`` keys are live.  Payload components are plain integers, so
  any linear sketch can be serialized into a payload (linearity of the
  table then sums inner sketches component-wise, which is what Algorithm 2
  needs when many stream updates touch the same key).

* :class:`NeighborhoodHashTable` — the specialization used by the spanner:
  the payload for key ``v`` is a 1-sparse detector of ``N(v) ∩ T_u ∩ Y_j``
  over the vertex domain.  (The paper stores an ``O(log n)``-budget sketch
  per key; since the ``Y_j`` levels already reduce each surviving
  neighborhood to near-singletons, a 1-sparse detector per level carries
  the same guarantee — the standard L0-sampler argument — at a third of
  the payload width — a deliberate constant-factor substitution;
  ``SpannerParams.table_stacks`` restores the per-key success
  probability.)
"""

from __future__ import annotations

import numpy as np

from repro.sketch.kernels import powmod61
from repro.sketch.hashing import MERSENNE_61
from repro.sketch.onesparse import DecodeStatus, OneSparseDetector, OneSparseResult
from repro.sketch.sparse_recovery import SparseRecoverySketch, as_index_array
from repro.util.rng import derive_seed

__all__ = ["LinearHashTable", "NeighborhoodHashTable"]


class LinearHashTable:
    """Linear ``key -> payload vector`` table with sketch-space recovery.

    Parameters
    ----------
    key_domain:
        Keys are integers in ``[0, key_domain)``.
    payload_len:
        Number of integer components per payload.
    capacity:
        Decoding is guaranteed (whp) while at most ``capacity`` keys have
        a nonzero payload.
    seed:
        Randomness name; tables with equal seeds are summable.
    """

    __slots__ = ("key_domain", "payload_len", "capacity", "_sketch")

    def __init__(
        self,
        key_domain: int,
        payload_len: int,
        capacity: int,
        seed: int | str,
        rows: int = 3,
        bucket_factor: float = 2.0,
    ):
        if key_domain <= 0:
            raise ValueError(f"key_domain must be positive, got {key_domain}")
        if payload_len <= 0:
            raise ValueError(f"payload_len must be positive, got {payload_len}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.key_domain = key_domain
        self.payload_len = payload_len
        self.capacity = capacity
        self._sketch = SparseRecoverySketch(
            domain_size=key_domain * payload_len,
            budget=capacity * payload_len,
            seed=derive_seed(seed, "linear-hash-table"),
            rows=rows,
            bucket_factor=bucket_factor,
        )

    def add_to_payload(self, key: int, component: int, delta: int) -> None:
        """Apply ``payload[key][component] += delta``."""
        if not 0 <= key < self.key_domain:
            raise IndexError(f"key {key} out of domain [0, {self.key_domain})")
        if not 0 <= component < self.payload_len:
            raise IndexError(f"component {component} out of [0, {self.payload_len})")
        self._sketch.update(key * self.payload_len + component, delta)

    def add_payload(self, key: int, payload: list[int], sign: int = 1) -> None:
        """Apply ``payload[key] += sign * payload`` component-wise."""
        if len(payload) != self.payload_len:
            raise ValueError(f"payload must have {self.payload_len} components")
        for component, value in enumerate(payload):
            if value != 0:
                self.add_to_payload(key, component, sign * value)

    def add_to_payload_batch(self, keys, component: int, deltas) -> None:
        """Batched :meth:`add_to_payload` for one payload component.

        ``payload[keys[t]][component] += deltas[t]`` for the whole
        batch, via the underlying sketch's vectorized
        :meth:`~repro.sketch.sparse_recovery.SparseRecoverySketch.update_batch`.
        Bit-identical to the scalar call sequence; ``deltas`` may hold
        arbitrary-precision integers (serialized inner-sketch state).
        """
        if not 0 <= component < self.payload_len:
            raise IndexError(f"component {component} out of [0, {self.payload_len})")
        keys = as_index_array(keys)
        if keys.size == 0:
            return
        if int(keys.min()) < 0 or int(keys.max()) >= self.key_domain:
            raise IndexError(f"key batch leaves domain [0, {self.key_domain})")
        self._sketch.update_batch(
            keys * np.int64(self.payload_len) + np.int64(component), deltas
        )

    def decode(self) -> dict[int, list[int]] | None:
        """Recover ``{key: payload vector}`` or ``None`` if undecodable."""
        decoded = self._sketch.decode()
        if decoded is None:
            return None
        table: dict[int, list[int]] = {}
        for index, value in decoded.items():
            key, component = divmod(index, self.payload_len)
            payload = table.get(key)
            if payload is None:
                payload = [0] * self.payload_len
                table[key] = payload
            payload[component] = value
        return table

    def combine(self, other: "LinearHashTable", sign: int = 1) -> None:
        """In-place ``self += sign * other``; seeds/shapes must match."""
        self._sketch.combine(other._sketch, sign)

    def clone(self) -> "LinearHashTable":
        """Independent copy with the same state and seed (the addressing
        layer is stateless; only the inner sketch cells are copied)."""
        clone = object.__new__(LinearHashTable)
        clone.key_domain = self.key_domain
        clone.payload_len = self.payload_len
        clone.capacity = self.capacity
        clone._sketch = self._sketch.copy()
        return clone

    def is_zero(self) -> bool:
        """Whether the table summarizes the all-zero map (whp)."""
        return self._sketch.is_zero()

    def state_ints(self) -> list[int]:
        """Dynamic state as a flat int sequence (for serialization).

        The table is a thin addressing layer over one sparse-recovery
        sketch, so its shippable state is exactly that sketch's state —
        including the ``~2^61``-sized payload cells, which the varint
        codec of :mod:`repro.sketch.serialize` encodes exactly.
        """
        return self._sketch.state_ints()

    def state_len(self) -> int:
        """Length of :meth:`state_ints`, without materializing it."""
        return self._sketch.state_len()

    def from_state_ints(self, values: list[int]) -> "LinearHashTable":
        """Overwrite the dynamic state from a :meth:`state_ints` sequence.

        Exact inverse of :meth:`state_ints` on a same-seed/same-shape
        table; returns ``self``.
        """
        self._sketch.from_state_ints(values)
        return self

    def space_words(self) -> int:
        """Persistent state, in machine words."""
        return self._sketch.space_words()


class NeighborhoodHashTable:
    """``H^u_j``: per outside-vertex key, a 1-sparse detector of its
    neighbors inside the cluster ``T_u`` (restricted to the level sample).

    ``add_neighbor(key=v, neighbor=a, delta)`` is the streaming translation
    of Algorithm 2's "add SKETCH(delta * a) to the v-th entry of H^u_j".
    """

    __slots__ = ("num_vertices", "_payload_template", "_table")

    def __init__(
        self,
        num_vertices: int,
        capacity: int,
        seed: int | str,
        rows: int = 3,
        bucket_factor: float = 2.0,
    ):
        self.num_vertices = num_vertices
        # All payload detectors share one fingerprint base via this
        # template, so contributions from different updates are summable.
        self._payload_template = OneSparseDetector(
            num_vertices, derive_seed(seed, "payload-template")
        )
        self._table = LinearHashTable(
            key_domain=num_vertices,
            payload_len=3,
            capacity=capacity,
            seed=derive_seed(seed, "table"),
            rows=rows,
            bucket_factor=bucket_factor,
        )

    def add_neighbor(self, key: int, neighbor: int, delta: int) -> None:
        """Record that edge ``(neighbor, key)`` changed by ``delta``.

        The payload delta is encoded *unreduced* (plain integers, the
        fingerprint term may be negative) so that an insert/delete pair
        cancels exactly in the outer table and frees its key capacity;
        reduction mod p happens once at decode time.
        """
        if not 0 <= neighbor < self.num_vertices:
            raise IndexError(f"neighbor {neighbor} out of [0, {self.num_vertices})")
        power = pow(self._payload_template.fingerprint_base, neighbor, MERSENNE_61)
        self._table.add_payload(key, [delta, delta * neighbor, delta * power])

    def add_neighbors_batch(self, keys, neighbors, deltas) -> None:
        """Batched :meth:`add_neighbor`: record a whole batch of edge
        changes ``(neighbors[t], keys[t]) += deltas[t]`` at once.

        The per-neighbor fingerprint powers are computed by one
        vectorized exponentiation and each payload component is pushed
        through the table's batched update; state is bit-identical to
        the equivalent scalar call sequence.
        """
        keys = as_index_array(keys)
        neighbors = as_index_array(neighbors)
        if keys.size != neighbors.size:
            raise ValueError("keys and neighbors must have equal length")
        if keys.size == 0:
            return
        if int(neighbors.min()) < 0 or int(neighbors.max()) >= self.num_vertices:
            raise IndexError(f"neighbor batch leaves [0, {self.num_vertices})")
        values = as_index_array(deltas)
        powers = powmod61(self._payload_template.fingerprint_base, neighbors)
        self._table.add_to_payload_batch(keys, 0, values)
        self._table.add_to_payload_batch(keys, 1, values * neighbors)
        self._table.add_to_payload_batch(
            keys, 2, [int(d) * int(p) for d, p in zip(values, powers)]
        )

    def decode_neighbors(self) -> dict[int, OneSparseResult] | None:
        """For every recovered key, decode its neighbor detector.

        Returns ``None`` when the table itself is undecodable (too many
        keys).  Otherwise maps each key to a
        :class:`~repro.sketch.onesparse.OneSparseResult`, whose status says
        whether exactly one in-cluster neighbor survived the level sample.
        """
        decoded = self._table.decode()
        if decoded is None:
            return None
        results: dict[int, OneSparseResult] = {}
        for key, payload in decoded.items():
            detector = self._payload_template.copy()
            detector.load_state_vector((payload[0], payload[1], payload[2]))
            result = detector.decode()
            if result.status is DecodeStatus.ZERO:
                continue
            results[key] = result
        return results

    def combine(self, other: "NeighborhoodHashTable", sign: int = 1) -> None:
        """In-place ``self += sign * other``; seeds must match."""
        self._table.combine(other._table, sign)

    def clone(self) -> "NeighborhoodHashTable":
        """Independent copy with the same state and seed.

        The payload-template detector is never mutated (decoding copies
        it before loading payloads), so it is shared; the outer table is
        copied cell-for-cell.
        """
        clone = object.__new__(NeighborhoodHashTable)
        clone.num_vertices = self.num_vertices
        clone._payload_template = self._payload_template
        clone._table = self._table.clone()
        return clone

    def is_zero(self) -> bool:
        """Whether the table summarizes the all-zero map (whp)."""
        return self._table.is_zero()

    def state_ints(self) -> list[int]:
        """Dynamic state as a flat int sequence (for serialization).

        The payload-template detector carries no dynamic state (it is a
        seed-derived fingerprint base, shared knowledge), so the
        shippable state is exactly the outer table's.
        """
        return self._table.state_ints()

    def state_len(self) -> int:
        """Length of :meth:`state_ints`, without materializing it."""
        return self._table.state_len()

    def from_state_ints(self, values: list[int]) -> "NeighborhoodHashTable":
        """Overwrite the dynamic state from a :meth:`state_ints` sequence.

        Exact inverse of :meth:`state_ints` on a same-seed table;
        returns ``self``.
        """
        self._table.from_state_ints(values)
        return self

    def space_words(self) -> int:
        """Persistent state, in machine words."""
        return self._table.space_words() + self._payload_template.space_words()
