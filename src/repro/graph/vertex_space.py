"""Vertex universes: dense ranges, sparse gigascale ids, interned labels.

The paper's sketches are *linear maps over the edge-incidence domain*:
their state is well defined for any vertex universe, and every space
bound is stated in the universe size ``n`` — yet only rows for vertices
actually incident to stream edges ever hold nonzero state.  Historically
every layer of this repository took ``num_vertices: int`` and eagerly
allocated dense per-vertex state, capping sessions at universes that fit
in RAM.  :class:`VertexSpace` decouples the three roles that single
integer used to play:

* the **universe size** — the logical id range, which seeds every hash
  family and sizes the edge-coordinate domain ``n^2`` (two spaces with
  equal universe sizes derive identical randomness, so their sketches
  stay summable regardless of storage);
* the **enumeration policy** — a dense universe lists every vertex in
  labels and components and charges its whole universe in space
  accounting; a ``lazy`` one lists and charges only the *touched*
  vertices.  Storage does not depend on it: the columnar engine
  (:mod:`repro.sketch.columnar`) always stores sketch rows on first
  touch, so resident state is proportional to touched vertices either
  way;
* the **external id map** — interned spaces accept arbitrary external
  ids (ints up to ``2^32``, or strings) and assign each a stable logical
  index on first sight.  Hash and seed derivation remain pure functions
  of the *logical* index, never of materialization order, so two
  sessions that intern the same externals in the same order hold
  bit-identical sketches.

Every algorithm constructor that used to take ``num_vertices: int``
still does — a plain int coerces to :meth:`VertexSpace.dense`, which
reproduces the historical dense answers and accounting.  Pass
:meth:`VertexSpace.sparse` (huge int universes) or
:meth:`VertexSpace.interned` (external ids) to enumerate and charge the
touched vertices only.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["VertexSpace", "as_vertex_space", "MAX_UNIVERSE"]

#: Largest supported universe: pair coordinates are ``u * n + v < n^2``
#: and the columnar engine's per-cell ``int64`` overflow guard needs a
#: unit-delta contribution ``|delta| * index < 2^61`` to stay on its
#: vectorized path, so ``n <= floor(sqrt(2^61))`` (~1.5 * 10^9).
#: Larger external id ranges (e.g. full 32-bit ids, or strings) go
#: through :meth:`VertexSpace.interned`, whose *logical* universe is the
#: declared session capacity, not the external id range.
MAX_UNIVERSE = 1_518_500_249  # floor(sqrt(2^61))

#: Kinds of external-id handling.
_ID_KINDS = (None, "ints", "strings")


class VertexSpace:
    """A vertex universe: logical size, enumeration policy, external ids.

    Parameters
    ----------
    universe_size:
        Number of logical vertex ids ``0..universe_size-1``.  Seeds and
        edge coordinates derive from this, so it is part of every
        sketch's identity.
    ids:
        ``None`` — external ids *are* the logical ids (ints in
        ``[0, universe_size)``).  ``"ints"`` / ``"strings"`` — external
        ids are arbitrary (32-bit ints / strings) and are interned to
        logical ids on first sight; ``universe_size`` is then the
        session's declared capacity of *distinct* ids.
    lazy:
        Whether labels, components and space accounting cover the
        touched vertices only (``True``) or the whole universe
        (``False``).  Defaults to ``True`` for interned spaces and for
        identity spaces, ``False`` only through :meth:`dense` (plain-int
        coercion), which preserves the historical dense answers.  Sketch
        storage is touched-rows-only either way.
    """

    __slots__ = ("universe_size", "ids", "lazy", "_intern", "_externals")

    def __init__(self, universe_size: int, ids: str | None = None, lazy: bool | None = None):
        if universe_size <= 0:
            raise ValueError(f"universe_size must be positive, got {universe_size}")
        if universe_size > MAX_UNIVERSE:
            raise ValueError(
                f"universe_size {universe_size} exceeds {MAX_UNIVERSE} "
                "(floor(sqrt(2^61))); pair coordinates must stay inside the "
                "columnar engine's exact-int64 envelope — intern larger "
                "external id ranges via VertexSpace.interned(capacity, ids=...)"
            )
        if ids not in _ID_KINDS:
            raise ValueError(f"ids must be one of {_ID_KINDS}, got {ids!r}")
        self.universe_size = universe_size
        self.ids = ids
        self.lazy = bool(lazy) if lazy is not None else True
        if ids is None:
            self._intern = None
            self._externals = None
        else:
            self._intern: dict = {}
            self._externals: list = []

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def dense(cls, num_vertices: int) -> "VertexSpace":
        """A small universe enumerated in full: ``range(n)``."""
        return cls(num_vertices, ids=None, lazy=False)

    @classmethod
    def sparse(cls, universe_size: int) -> "VertexSpace":
        """A huge identity universe enumerated by its touched ids."""
        return cls(universe_size, ids=None, lazy=True)

    @classmethod
    def interned(cls, capacity: int, ids: str = "strings") -> "VertexSpace":
        """A lazy universe addressed by external ids (always interned)."""
        if ids not in ("ints", "strings"):
            raise ValueError(f"ids must be 'ints' or 'strings', got {ids!r}")
        return cls(capacity, ids=ids, lazy=True)

    # ------------------------------------------------------------------
    # External-id interning
    # ------------------------------------------------------------------

    @property
    def is_interned(self) -> bool:
        """Whether external ids are interned (vs identity logical ids)."""
        return self.ids is not None

    def _check_external(self, external) -> None:
        if self.ids == "strings":
            if not isinstance(external, str):
                raise TypeError(f"this space interns strings, got {type(external).__name__}")
        else:  # "ints"
            if isinstance(external, bool) or not isinstance(external, int):
                raise TypeError(f"this space interns ints, got {type(external).__name__}")
            if not 0 <= external < (1 << 32):
                raise ValueError(f"external id {external} outside [0, 2^32)")

    def intern(self, external) -> int:
        """Logical id of ``external``, assigning the next free id if new.

        The assignment is first-sight stable: id ``t`` is the ``t``-th
        distinct external ever interned, which the checkpoint layer
        persists so a restored session re-derives identical sketches.
        """
        if self._intern is None:
            return self.resolve(external)
        logical = self._intern.get(external)
        if logical is None:
            self._check_external(external)
            logical = len(self._externals)
            if logical >= self.universe_size:
                raise ValueError(
                    f"interned universe is full: capacity {self.universe_size} "
                    f"distinct ids already assigned"
                )
            self._intern[external] = logical
            self._externals.append(external)
        return logical

    def lookup(self, external) -> int | None:
        """Logical id of ``external``, or ``None`` if never interned.

        Query paths use this so asking about an unknown id never grows
        the intern table.
        """
        if self._intern is None:
            if isinstance(external, int) and 0 <= external < self.universe_size:
                return external
            return None
        return self._intern.get(external)

    def resolve(self, external) -> int:
        """Logical id of ``external``; raises if unknown/out of range."""
        if self._intern is None:
            if isinstance(external, bool) or not isinstance(external, int):
                raise TypeError(
                    f"identity space takes int vertex ids, got {type(external).__name__}"
                )
            if not 0 <= external < self.universe_size:
                raise ValueError(
                    f"vertex {external} outside [0, {self.universe_size})"
                )
            return external
        logical = self._intern.get(external)
        if logical is None:
            raise KeyError(f"external id {external!r} was never interned")
        return logical

    def label(self, logical: int):
        """External id of a logical vertex (identity when not interned)."""
        if self._externals is None:
            return logical
        if not 0 <= logical < len(self._externals):
            raise IndexError(f"logical id {logical} was never assigned")
        return self._externals[logical]

    def interned_count(self) -> int:
        """How many distinct external ids have been assigned so far."""
        return 0 if self._externals is None else len(self._externals)

    def externals(self) -> list:
        """The intern table in logical-id order (checkpoint payload)."""
        return [] if self._externals is None else list(self._externals)

    def load_externals(self, externals: Iterable) -> None:
        """Rebuild the intern table (restore path); must be empty."""
        if self._intern is None:
            raise ValueError("identity spaces have no intern table to load")
        if self._externals:
            raise ValueError("intern table is not empty; cannot load over it")
        for external in externals:
            self.intern(external)

    # ------------------------------------------------------------------
    # Derived spaces / config round-trip
    # ------------------------------------------------------------------

    def doubled(self) -> "VertexSpace":
        """A same-policy identity space over ``2n`` logical ids.

        The bipartite double cover lives on logical ids ``v`` and
        ``v + n``; external ids never reach it, so the derived space is
        always an identity space.
        """
        return VertexSpace(2 * self.universe_size, ids=None, lazy=self.lazy)

    def config(self) -> dict:
        """JSON-serializable description (without the intern table)."""
        return {
            "universe_size": self.universe_size,
            "ids": self.ids,
            "lazy": self.lazy,
        }

    @classmethod
    def from_config(cls, config: dict) -> "VertexSpace":
        """Inverse of :meth:`config` (intern table loaded separately)."""
        return cls(
            int(config["universe_size"]),
            ids=config.get("ids"),
            lazy=bool(config.get("lazy", False)),
        )

    def __repr__(self) -> str:
        kind = "interned-" + self.ids if self.ids else ("sparse" if self.lazy else "dense")
        return f"VertexSpace({self.universe_size}, {kind})"


def as_vertex_space(value: "int | VertexSpace") -> VertexSpace:
    """Coerce the historical ``num_vertices: int`` contract to a space.

    Plain ints become :meth:`VertexSpace.dense`, reproducing the
    historical dense answers exactly; an existing space passes through
    unchanged.
    """
    if isinstance(value, VertexSpace):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(
            f"expected an int or VertexSpace, got {type(value).__name__}"
        )
    return VertexSpace.dense(value)
