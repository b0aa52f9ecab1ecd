"""Deterministic seed derivation.

Every randomized component in this repository draws its randomness from a
named seed derived with :func:`derive_seed`.  Derivation is cryptographic
(SHA-256 over the rendered parts), so distinct names give independent
streams while identical names give identical streams — which is exactly
what linear sketching needs: two sketches can only be added if they were
built from the same derived seed, and re-running an experiment with the
same master seed reproduces it bit-for-bit.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["derive_seed", "rng_from_seed"]


def derive_seed(master: int | str, *parts: int | str) -> int:
    """Derive a 64-bit seed from a master seed and a path of name parts.

    Parameters
    ----------
    master:
        The experiment-level master seed (int or string).
    parts:
        Arbitrary identifying parts, e.g. ``("sketch", r, j)``.  The same
        ``(master, parts)`` always yields the same seed; any change in any
        part yields an (effectively) independent seed.
    """
    message = "/".join(map(repr, (master, *parts))).encode("utf-8")
    return int.from_bytes(hashlib.sha256(message).digest()[:8], "big")


def rng_from_seed(master: int | str, *parts: int | str) -> random.Random:
    """Return a ``random.Random`` seeded via :func:`derive_seed`."""
    return random.Random(derive_seed(master, *parts))
