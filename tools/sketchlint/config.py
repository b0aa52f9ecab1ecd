"""Checker configuration: the seam lists and whitelists, in one place.

Every module set a checker keys off is *explicit* here — seam-listed,
not guessed — so a reviewer can see exactly what is enforced where, and
tests can substitute fixture-sized configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Config", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class Config:
    """Module lists the checkers consult (dotted module names)."""

    #: The audited field-arithmetic kernels: the ONLY modules allowed to
    #: hand-roll mod-(2^61-1) array arithmetic.  Everything else must go
    #: through their exported helpers (``as_field_array``, ``mulmod61``,
    #: ``scatter_sum_mod61``, ...).
    kernel_modules: frozenset[str] = frozenset(
        {
            "repro.sketch.columnar",
            "repro.sketch.hashing",
            "repro.sketch.kernels",
            "repro.sketch.kernels.reference",
            "repro.sketch.kernels.limb",
            "repro.sketch.kernels.native",
        }
    )

    #: The dispatch facade for the pluggable kernel backends: the only
    #: module anyone outside the kernels package may import field-kernel
    #: entry points from.  Importing a backend module directly (or
    #: re-defining a kernel entry point) bypasses backend selection and
    #: the bit-identity oracle (SL205).
    kernel_dispatch_module: str = "repro.sketch.kernels"

    #: The dispatched kernel entry points guarded by SL205.
    kernel_dispatch_names: frozenset[str] = frozenset(
        {
            "addmod61",
            "submod61",
            "mulmod61",
            "polyhash61",
            "polyhash61_rows",
            "polyhash61_multi",
            "powmod61",
            "build_pow_table",
            "scatter_sum_mod61",
            "stack_positions_terms",
        }
    )

    #: The module that *defines* the field constant; the one place the
    #: prime may appear as a literal.
    field_constant_module: str = "repro.sketch.hashing"

    #: Modules whose arrays hold field elements / exact counters, where
    #: dtype discipline (no float contamination, no unguarded narrowing,
    #: no unguarded int64 accumulation) applies.
    field_module_prefixes: tuple[str, ...] = ("repro.sketch", "repro.agm")

    #: The checkpoint/wire/state seams: bit-identity starts here.  The
    #: determinism checker bans unseeded randomness and wall-clock in
    #: these modules and everything they (transitively) import.
    seam_modules: frozenset[str] = frozenset(
        {
            "repro.service.checkpoint",
            "repro.service.session",
            "repro.sketch.serialize",
            "repro.stream.distributed",
        }
    )

    #: Repo-local import prefix (imports outside it are third-party and
    #: not followed when closing over the seams).
    local_prefix: str = "repro"

    #: Module prefixes allowed to touch the process clock directly.  The
    #: telemetry package owns the clock (it injects it into tracers so
    #: the determinism seams stay clean); everywhere else in ``repro.*``
    #: must time through ``obs.TRACER`` spans (SL501).
    wallclock_allowed_prefixes: tuple[str, ...] = ("repro.obs",)

    #: The self-healing recovery seams: modules whose ``except`` blocks
    #: are load-bearing (checkpoint fallback, shard retry, degraded
    #: queries).  The recovery checker (SL6xx) requires every handler
    #: here to re-raise or bump an observability counter — a silently
    #: swallowed exception in these modules is a recovery path that
    #: vanished from telemetry.
    recovery_module_prefixes: tuple[str, ...] = (
        "repro.service",
        "repro.stream.distributed",
        "repro.faults",
    )

    #: Names of classes that are abstract interface roots: they declare
    #: contract methods (possibly as raising defaults) and are exempt
    #: from the "concrete class implements the contract" checks.
    abstract_roots: frozenset[str] = frozenset({"StreamingAlgorithm"})

    #: Extra per-class method names counted as clone entry points.
    clone_names: tuple[str, ...] = ("clone", "copy")

    #: Writer -> accepted reader spellings, the wire-pairing table.
    wire_pairs: dict = field(
        default_factory=lambda: {
            "state_ints": ("from_state_ints", "load_state_ints"),
            "shard_state_ints": ("load_shard_state_ints",),
            "sparse_state_ints": ("load_sparse_state",),
            "row_state_ints": ("load_row_state",),
        }
    )

    #: Readers that consume a shared flat sequence and therefore must
    #: take a ``cursor`` and return the advanced cursor (self-delimiting
    #: framing).
    cursor_readers: frozenset[str] = frozenset(
        {"load_sparse_state", "load_state_ints"}
    )


DEFAULT_CONFIG = Config()
