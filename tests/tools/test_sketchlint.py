"""sketchlint: per-checker fixtures, suppressions, CLI schema, and the
meta-test that the live ``src/`` tree is clean.

Each checker family gets a known-bad fixture (written to ``tmp_path``
and linted with a fixture-sized :class:`~tools.sketchlint.config.Config`)
plus a known-good twin, so a checker that silently stops firing — or
starts firing on clean code — fails here, not in review.
"""

import dataclasses
import json
import re
import textwrap

import pytest

from tools import _repo
from tools.sketchlint import cli
from tools.sketchlint.checkers import protocol, recovery, wallclock
from tools.sketchlint.config import DEFAULT_CONFIG, Config
from tools.sketchlint.model import load_paths
from tools.sketchlint.registry import all_checkers


def lint_source(tmp_path, source, config=DEFAULT_CONFIG, name="fixture.py"):
    """Write ``source`` to a fixture module and lint it."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return cli.run_paths([path], config=config)


def codes_of(result):
    return [d.code for d in result.diagnostics]


# -- protocol (SL1xx) --------------------------------------------------


def test_broken_sketch_fails_protocol(tmp_path):
    result = lint_source(
        tmp_path,
        """
        class BrokenSketch:
            def combine(self, other, sign=1):
                pass

            def update(self, index, delta):
                pass
        """,
    )
    # No clone, no wire protocol, no space accounting.
    assert codes_of(result).count("SL101") == 3


def test_conforming_sketch_is_clean(tmp_path):
    result = lint_source(
        tmp_path,
        """
        class GoodSketch:
            def combine(self, other, sign=1): pass
            def clone(self): pass
            def update(self, index, delta): pass
            def state_ints(self): return []
            def from_state_ints(self, values): return self
            def space_words(self): return 0
        """,
    )
    assert result.clean


def test_contract_resolves_through_repo_local_bases(tmp_path):
    result = lint_source(
        tmp_path,
        """
        class Base:
            def clone(self): pass
            def state_ints(self): return []
            def from_state_ints(self, values): return self
            def space_words(self): return 0

        class Derived(Base):
            def combine(self, other, sign=1): pass
            def update(self, index, delta): pass
        """,
    )
    assert result.clean


def test_partial_shard_protocol_flagged(tmp_path):
    result = lint_source(
        tmp_path,
        """
        class PartialShard(StreamingAlgorithm):
            @property
            def passes_required(self): return 1
            def process(self, update, pass_index): pass
            def finalize(self): return None
            def shard_state_ints(self): return []
        """,
    )
    assert "SL102" in codes_of(result)


def test_missing_abstract_members_flagged(tmp_path):
    result = lint_source(
        tmp_path,
        """
        class Hollow(StreamingAlgorithm):
            @property
            def passes_required(self): return 1
        """,
    )
    codes = codes_of(result)
    assert "SL103" in codes
    message = next(d.message for d in result.diagnostics if d.code == "SL103")
    assert "process" in message and "finalize" in message


def test_stack_missing_sparse_wire_flagged(tmp_path):
    result = lint_source(
        tmp_path,
        """
        class HalfStack:
            def combine(self, other, sign=1): pass
            def clone(self): pass
            def space_words(self): return 0
            def state_ints(self): return []
            def from_state_ints(self, values): return self
            def row_state_ints(self, row): return []
            def load_row_state(self, row, values): pass
        """,
    )
    assert "SL104" in codes_of(result)


# -- field / dtype (SL2xx) ---------------------------------------------


FIELD_CONFIG = dataclasses.replace(
    DEFAULT_CONFIG,
    kernel_modules=frozenset(),
    field_module_prefixes=("fieldmod",),
)


def test_literal_prime_flagged(tmp_path):
    result = lint_source(tmp_path, "P = (1 << 61) - 1\n", name="fieldmod.py",
                         config=FIELD_CONFIG)
    assert codes_of(result) == ["SL201"]
    result = lint_source(tmp_path, "P = 2305843009213693951\n",
                         name="fieldmod.py", config=FIELD_CONFIG)
    assert codes_of(result) == ["SL201"]


def test_hand_rolled_coercion_flagged(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import numpy as np
        from repro.sketch.hashing import MERSENNE_61

        def coerce(values):
            return np.remainder(values, MERSENNE_61).astype(np.uint64)
        """,
        name="fieldmod.py",
        config=FIELD_CONFIG,
    )
    assert "SL202" in codes_of(result)


def test_coercion_allowed_inside_kernels(tmp_path):
    config = dataclasses.replace(FIELD_CONFIG, kernel_modules=frozenset({"fieldmod"}))
    result = lint_source(
        tmp_path,
        """
        import numpy as np
        from repro.sketch.hashing import MERSENNE_61

        def coerce(values):
            return np.remainder(values, MERSENNE_61).astype(np.uint64)
        """,
        name="fieldmod.py",
        config=config,
    )
    assert result.clean


def test_float_contamination_flagged(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import numpy as np

        def bad(x):
            y = x.astype(np.float64)
            z = np.zeros(4, dtype=np.int32)
            return y, z
        """,
        name="fieldmod.py",
        config=FIELD_CONFIG,
    )
    assert codes_of(result).count("SL203") == 2


def test_unguarded_sum_flagged_guarded_allowed(tmp_path):
    result = lint_source(
        tmp_path,
        """
        from repro.sketch.sparse_recovery import max_abs_int64

        def unguarded(x):
            return x.sum()

        def guarded(x, idx):
            if x.size * max_abs_int64(x) * int(idx.max()) < 2**62:
                return x.sum()
            return None

        def explicit(x):
            return x.sum(dtype=object)
        """,
        name="fieldmod.py",
        config=FIELD_CONFIG,
    )
    flagged = [d for d in result.diagnostics if d.code == "SL204"]
    assert len(flagged) == 1 and flagged[0].line == 5


# -- kernel dispatch (SL205) -------------------------------------------


def test_kernel_name_import_from_non_dispatch_flagged(tmp_path):
    result = lint_source(
        tmp_path,
        """
        from repro.sketch.sparse_recovery import mulmod61

        def use(a, b):
            return mulmod61(a, b)
        """,
        name="clientmod.py",
    )
    assert codes_of(result) == ["SL205"]


def test_kernel_import_from_dispatch_facade_is_clean(tmp_path):
    result = lint_source(
        tmp_path,
        """
        from repro.sketch.kernels import mulmod61, scatter_sum_mod61

        def use(a, b):
            return scatter_sum_mod61(mulmod61(a, b), a, 4)
        """,
        name="clientmod.py",
    )
    assert result.clean


def test_backend_module_import_flagged(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import repro.sketch.kernels.native
        from repro.sketch.kernels import limb
        from repro.sketch.kernels.reference import mulmod61
        """,
        name="clientmod.py",
    )
    assert codes_of(result) == ["SL205", "SL205", "SL205"]


def test_kernel_shadow_definition_flagged(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def mulmod61(a, b):
            return a * b
        """,
        name="clientmod.py",
    )
    assert codes_of(result) == ["SL205"]


def test_backends_free_inside_kernels_package(tmp_path):
    config = dataclasses.replace(DEFAULT_CONFIG, kernel_dispatch_module="kernmod")
    result = lint_source(
        tmp_path,
        """
        def mulmod61(a, b):
            return a * b
        """,
        name="kernmod.py",
        config=config,
    )
    assert result.clean


def test_live_src_routes_kernels_through_dispatch():
    # The real tree: every kernel call site outside the kernels package
    # imports from the dispatch facade, so backend selection is global.
    index, errors = load_paths([_repo.SRC_DIR], DEFAULT_CONFIG)
    assert errors == []
    from tools.sketchlint.checkers import dispatch as dispatch_checker

    offenders = sorted({
        d.path for d in dispatch_checker.check_dispatch(index)
    })
    assert offenders == []


def test_dispatch_names_match_the_kernel_table():
    # SL205 guards the names in the config; the dispatch layer serves
    # KERNEL_NAMES. A kernel added to or deleted from one list only
    # would leave it unguarded or guard a name that no longer exists.
    from repro.sketch.kernels import KERNEL_NAMES

    assert DEFAULT_CONFIG.kernel_dispatch_names == frozenset(KERNEL_NAMES)


# -- determinism (SL3xx) -----------------------------------------------


SEAM_CONFIG = dataclasses.replace(
    DEFAULT_CONFIG, seam_modules=frozenset({"seammod"})
)

NONDETERMINISTIC = """
    import random
    import time

    import numpy as np

    def tainted():
        a = random.random()
        b = random.Random(7).random()  # seeded instance: allowed
        c = np.random.rand(3)
        t = time.time()
        h = hash("key")
        return a, b, c, t, h
"""


def test_seam_randomness_and_clock_flagged(tmp_path):
    result = lint_source(tmp_path, NONDETERMINISTIC, name="seammod.py",
                         config=SEAM_CONFIG)
    codes = codes_of(result)
    assert codes.count("SL301") == 1  # random.random(); Random(7) exempt
    assert "SL302" in codes
    assert "SL303" in codes
    assert "SL304" in codes


def test_off_seam_module_not_checked(tmp_path):
    result = lint_source(tmp_path, NONDETERMINISTIC, name="freemod.py",
                         config=SEAM_CONFIG)
    assert result.clean


def test_seam_closure_follows_local_imports(tmp_path):
    # helper is NOT seam-listed; it is reachable only because the seam
    # imports it, so a finding there proves the transitive closure.
    (tmp_path / "helper.py").write_text(
        "import time\n\ndef now():\n    return time.time()\n"
    )
    (tmp_path / "seammod.py").write_text("import helper\n")
    config = dataclasses.replace(
        DEFAULT_CONFIG,
        seam_modules=frozenset({"seammod"}),
        local_prefix="helper",
    )
    result = cli.run_paths([tmp_path], config=config)
    assert "SL303" in codes_of(result)


# -- wallclock (SL5xx) -------------------------------------------------


CLOCKY = """
    import time

    def measure():
        start = time.perf_counter()
        clock = time.monotonic
        return clock() - start
"""


def _wallclock_config(local_prefix, allowed=()):
    return dataclasses.replace(
        DEFAULT_CONFIG, local_prefix=local_prefix,
        wallclock_allowed_prefixes=allowed,
    )


def test_raw_clock_in_local_module_flagged(tmp_path):
    result = lint_source(tmp_path, CLOCKY, name="appmod.py",
                         config=_wallclock_config("appmod"))
    # Both the perf_counter() call and the stored time.monotonic
    # reference fire: a saved "clock" callable is the same bypass.
    assert codes_of(result).count("SL501") == 2


def test_clock_allowed_inside_obs_layer(tmp_path):
    result = lint_source(tmp_path, CLOCKY, name="obsmod.py",
                         config=_wallclock_config("obsmod", ("obsmod",)))
    assert result.clean


def test_clock_outside_local_prefix_not_checked(tmp_path):
    # benchmarks / tools / tests live outside the repro.* namespace and
    # may time themselves however they like.
    result = lint_source(tmp_path, CLOCKY, name="benchmod.py",
                         config=_wallclock_config("appmod"))
    assert result.clean


def test_live_obs_layer_is_the_only_clock_owner():
    # The real tree: repro.obs.tracer holds the one clock reference.
    # Run the checker's file scan with the allowlist disabled so a
    # second clock anywhere under src/ shows up here by name.
    index, errors = load_paths([_repo.SRC_DIR], DEFAULT_CONFIG)
    assert errors == []
    clockful = sorted({
        source.module
        for source in index.files
        if any(True for _ in wallclock._check_file(source))
    })
    assert clockful == ["repro.obs.tracer"]


# -- recovery (SL6xx) --------------------------------------------------


def _recovery_config(*prefixes):
    return dataclasses.replace(
        DEFAULT_CONFIG, recovery_module_prefixes=prefixes,
    )


def test_bare_except_on_recovery_seam_flagged(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def load():
            try:
                return open("x").read()
            except:
                return None
        """,
        name="recmod.py",
        config=_recovery_config("recmod"),
    )
    assert codes_of(result) == ["SL601"]


def test_swallowed_exception_flagged(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def restore(paths):
            for path in paths:
                try:
                    return open(path).read()
                except OSError:
                    continue
            return None
        """,
        name="recmod.py",
        config=_recovery_config("recmod"),
    )
    assert codes_of(result) == ["SL602"]


def test_reraising_handler_is_clean(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def restore(path):
            try:
                return open(path).read()
            except OSError as error:
                raise RuntimeError(f"cannot restore {path}") from error
        """,
        name="recmod.py",
        config=_recovery_config("recmod"),
    )
    assert result.clean


def test_counting_handler_is_clean(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import obs

        def restore(paths):
            for path in paths:
                try:
                    return open(path).read()
                except OSError:
                    obs.TRACER.count("checkpoint.corrupt_detected")
            return None
        """,
        name="recmod.py",
        config=_recovery_config("recmod"),
    )
    assert result.clean


def test_raise_inside_nested_def_does_not_count(tmp_path):
    # A `raise` in a function *defined* inside the handler only runs if
    # someone later calls it — the handler itself still swallows.
    result = lint_source(
        tmp_path,
        """
        def restore(path):
            try:
                return open(path).read()
            except OSError:
                def escalate():
                    raise RuntimeError("never called")
                return None
        """,
        name="recmod.py",
        config=_recovery_config("recmod"),
    )
    assert codes_of(result) == ["SL602"]


def test_swallow_outside_recovery_prefixes_not_checked(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def probe(value):
            try:
                return int(value)
            except ValueError:
                return None
        """,
        name="othermod.py",
        config=_recovery_config("recmod"),
    )
    assert result.clean


def test_recovery_suppression_carries_reason(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def probe(value):
            try:
                return int(value)
            # sketchlint: disable=SL602 type probe, None is the answer
            except ValueError:
                return None
        """,
        name="recmod.py",
        config=_recovery_config("recmod"),
    )
    assert result.clean


def test_live_recovery_seams_are_disciplined():
    # The real tree: every handler in the recovery seams either
    # re-raises, counts through obs, or carries a reviewed suppression.
    index, errors = load_paths([_repo.SRC_DIR], DEFAULT_CONFIG)
    assert errors == []
    covered = [
        source for source in index.files
        if recovery._in_scope(
            source.module, DEFAULT_CONFIG.recovery_module_prefixes
        )
    ]
    # The seams actually contain the modules PR 9 hardened.
    modules = {source.module for source in covered}
    assert {
        "repro.service.checkpoint", "repro.service.session",
        "repro.stream.distributed", "repro.faults.injector",
        "repro.faults.chaos",
    } <= modules


# -- wire pairing (SL4xx) ----------------------------------------------


def test_writer_without_reader_flagged(tmp_path):
    result = lint_source(
        tmp_path,
        """
        class WriterOnly:
            def state_ints(self): return []
        """,
    )
    assert "SL401" in codes_of(result)


def test_reader_without_writer_flagged(tmp_path):
    result = lint_source(
        tmp_path,
        """
        class ReaderOnly:
            def load_sparse_state(self, values, cursor=0):
                return cursor
        """,
    )
    assert "SL402" in codes_of(result)


def test_cursor_reader_without_cursor_param_flagged(tmp_path):
    result = lint_source(
        tmp_path,
        """
        class BadFraming:
            def sparse_state_ints(self): return []
            def load_sparse_state(self, values):
                return 0
        """,
    )
    assert "SL403" in codes_of(result)


def test_cursor_reader_swallowing_cursor_flagged(tmp_path):
    result = lint_source(
        tmp_path,
        """
        class Swallows:
            def sparse_state_ints(self): return []
            def load_sparse_state(self, values, cursor=0):
                if not values:
                    return
                return cursor
        """,
    )
    assert "SL403" in codes_of(result)


def test_paired_wire_is_clean(tmp_path):
    result = lint_source(
        tmp_path,
        """
        class Paired:
            def state_ints(self): return []
            def load_state_ints(self, values, cursor=0):
                return cursor
        """,
    )
    assert result.clean


# -- suppressions ------------------------------------------------------


def test_reasoned_suppression_honored(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import numpy as np
        from repro.sketch.hashing import MERSENNE_61

        def coerce(values):
            return np.remainder(values, MERSENNE_61)  # sketchlint: disable=SL202 fixture exercises suppression
        """,
        name="fieldmod.py",
        config=FIELD_CONFIG,
    )
    assert result.clean


def test_standalone_suppression_covers_next_line(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import numpy as np
        from repro.sketch.hashing import MERSENNE_61

        def coerce(values):
            # sketchlint: disable=SL202 fixture exercises standalone form
            return np.remainder(values, MERSENNE_61)
        """,
        name="fieldmod.py",
        config=FIELD_CONFIG,
    )
    assert result.clean


def test_reasonless_suppression_is_malformed(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import numpy as np
        from repro.sketch.hashing import MERSENNE_61

        def coerce(values):
            return np.remainder(values, MERSENNE_61)  # sketchlint: disable=SL202
        """,
        name="fieldmod.py",
        config=FIELD_CONFIG,
    )
    codes = codes_of(result)
    assert "SL001" in codes  # the blanket disable itself is a finding
    assert "SL202" in codes  # and the rejected suppression silences nothing


def test_unknown_code_shape_is_malformed(tmp_path):
    result = lint_source(
        tmp_path,
        "x = 1  # sketchlint: disable=SL9999 not a real code shape\n",
    )
    assert codes_of(result) == ["SL001"]


# -- CLI / JSON schema -------------------------------------------------


def test_cli_json_schema_on_live_src(capsys):
    exit_code = cli.main(["--json", str(_repo.SRC_DIR)])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert payload["version"] == 1
    assert payload["diagnostics"] == []
    assert payload["errors"] == []
    assert len(payload["checkers"]) >= 4
    assert {c["name"] for c in payload["checkers"]} >= {
        "protocol", "field", "determinism", "wire",
    }
    inventory = payload["inventory"]
    assert len(inventory["sketch_classes"]) >= 10
    assert len(inventory["streaming_algorithms"]) >= 5
    for entry in payload["diagnostics"]:
        assert set(entry) == {"file", "line", "code", "message", "checker"}


def test_cli_human_output_and_exit(tmp_path, capsys):
    bad = tmp_path / "fixture.py"
    bad.write_text("class WriterOnly:\n    def state_ints(self): return []\n")
    exit_code = cli.main([str(bad)])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert ":2: SL401" in out  # anchored at the writer method, not the class


def test_cli_list_checkers(capsys):
    assert cli.main(["--list-checkers"]) == 0
    out = capsys.readouterr().out
    for family in ("protocol", "field", "determinism", "wire"):
        assert family in out


def test_cli_requires_paths(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


def test_syntax_error_reported_not_crashed(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    assert cli.main([str(bad)]) == 1
    assert "syntax error" in capsys.readouterr().err


# -- the meta-test: the live tree conforms to its own invariants -------


def test_live_src_is_clean():
    result = cli.run_paths([_repo.SRC_DIR])
    assert result.errors == []
    assert result.diagnostics == [], "\n".join(
        d.format(_repo.REPO_ROOT) for d in result.diagnostics
    )


def test_live_inventory_is_complete():
    index, errors = load_paths([_repo.SRC_DIR], DEFAULT_CONFIG)
    assert errors == []
    registry = protocol.discover(index)
    names = {info.name for info in registry["sketches"]}
    assert {
        "AgmSketch", "CountSketch", "DistinctElementsSketch", "L0Sampler",
        "OneSparseDetector", "SketchStack", "SparseRecoverySketch",
    } <= names
    assert len(registry["sketches"]) + len(registry["algorithms"]) >= 10


def test_registry_exposes_all_families():
    families = {checker.name for checker in all_checkers()}
    assert families >= {
        "protocol", "field", "dispatch", "determinism", "wire", "wallclock",
        "recovery",
    }
    codes = {code for checker in all_checkers() for code in checker.codes}
    assert len(codes) >= 15


def test_registered_codes_match_the_invariants_catalogue():
    # Every code a checker can emit has a `### SLNNN` section in
    # docs/invariants.md, and every section names a live code.
    codes = {code for checker in all_checkers() for code in checker.codes}
    catalogue = (_repo.REPO_ROOT / "docs" / "invariants.md").read_text()
    documented = set(re.findall(r"^### (SL\d{3})\b", catalogue, flags=re.MULTILINE))
    assert codes == documented
