"""Space accounting.

The paper's results are space bounds, so the experiments must *measure*
space rather than assert it.  Convention used throughout the repository:
every sketch object exposes ``space_words()``, the number of persistent
machine words (counters, field elements, hash coefficients) it holds.
One word models ``O(log n)`` bits; reported bit counts multiply by 64.

Since the sparse vertex-universe engine, "held" is no longer the same as
"addressed": sketch stacks store per-vertex rows on first touch, and a
lazy :class:`~repro.graph.vertex_space.VertexSpace` charges only those,
so the interesting number is the **resident** word count (what is
actually allocated for touched vertices) next to the **dense-universe** word count (what an
eager allocation over the full id range would hold — the quantity the
paper's ``~O(n polylog n)`` bounds talk about).  :class:`SpaceReport`
tracks both per component: ``add(name, words)`` keeps the historical
single-number accounting (universe defaults to resident), and callers
that know their dense-universe reference pass ``universe_words``
explicitly.  ``space_words()`` implementations across the repository
report *resident* words — nothing computes space from the universe size
alone anymore; the universe number is only ever a reported reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SpaceReport"]


@dataclass
class SpaceReport:
    """Named word counts with totals (resident and dense-universe)."""

    components: dict[str, int] = field(default_factory=dict)
    universe_components: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, words: int, universe_words: int | None = None) -> None:
        """Accumulate ``words`` (resident) under ``name``.

        ``universe_words`` is what a dense allocation over the vertex
        universe would hold for this component; it defaults to the
        resident count (correct for state that is not vertex-indexed).
        """
        if words < 0:
            raise ValueError(f"word count must be >= 0, got {words}")
        if universe_words is None:
            universe_words = words
        if universe_words < words:
            raise ValueError(
                f"universe words ({universe_words}) cannot be below resident "
                f"words ({words}) for {name!r}"
            )
        self.components[name] = self.components.get(name, 0) + words
        self.universe_components[name] = (
            self.universe_components.get(name, 0) + universe_words
        )

    def total_words(self) -> int:
        """Total *resident* words across all components."""
        return sum(self.components.values())

    def universe_words(self) -> int:
        """Total words of a dense-universe allocation (>= resident)."""
        return sum(self.universe_components.values())

    def total_bits(self, bits_per_word: int = 64) -> int:
        """Total resident bits, assuming ``bits_per_word``-bit words."""
        return self.total_words() * bits_per_word

    def merged(self, other: "SpaceReport") -> "SpaceReport":
        """A new report combining both component maps."""
        result = SpaceReport(dict(self.components), dict(self.universe_components))
        for name, words in other.components.items():
            result.add(name, words, other.universe_components.get(name, words))
        return result

    def format_table(self) -> str:
        """Human-readable breakdown, largest components first.

        A ``universe`` column appears only when some component's
        dense-universe reference differs from its resident count (the
        lazy-engine regime).
        """
        sparse = self.universe_words() != self.total_words()
        if sparse:
            lines = ["component                          resident     universe"]
        else:
            lines = ["component                          words"]
        for name, words in sorted(self.components.items(), key=lambda kv: -kv[1]):
            if sparse:
                lines.append(
                    f"{name:<32} {words:>10} {self.universe_components.get(name, words):>12}"
                )
            else:
                lines.append(f"{name:<32} {words:>8}")
        if sparse:
            lines.append(
                f"{'TOTAL':<32} {self.total_words():>10} {self.universe_words():>12}"
            )
        else:
            lines.append(f"{'TOTAL':<32} {self.total_words():>8}")
        return "\n".join(lines)
