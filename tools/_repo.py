"""Shared repo-layout helper for the developer tools.

Single source of truth for three facts every tool used to re-derive on
its own:

* where the source tree lives (:data:`REPO_ROOT`, :data:`SRC_DIR`,
  :data:`PACKAGE_DIR`) and which sub-packages the repository promises
  (:data:`EXPECTED_PACKAGES`);
* what counts as a source module (:func:`iter_source_files`,
  :func:`module_name`) — the walk :mod:`tools.check_docstrings` and
  :mod:`tools.sketchlint` both analyze;
* what counts as a gated bench suite (:func:`bench_suites`) — derived
  from the committed baselines under ``benchmarks/baselines/``, so
  committing a new ``BENCH_<name>.json`` automatically puts it under
  :mod:`tools.perf_regress`'s regression gate.

Pure stdlib; no third-party dependencies.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

#: Repository root (the directory holding ``src/``, ``tools/``, ...).
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The import root that goes on ``PYTHONPATH``.
SRC_DIR = REPO_ROOT / "src"

#: The single top-level package all source modules live under.
PACKAGE_DIR = SRC_DIR / "repro"

#: Sub-packages the repository promises; a rename or accidental deletion
#: fails the docs gate instead of silently shrinking coverage.  New
#: subsystems (e.g. the ``service`` sketch store) must be listed here so
#: their public APIs are provably walked.
EXPECTED_PACKAGES = (
    "agm",
    "baselines",
    "core",
    "faults",
    "graph",
    "lowerbound",
    "obs",
    "service",
    "sketch",
    "stream",
    "util",
)


def iter_source_files(root: pathlib.Path | None = None) -> list[pathlib.Path]:
    """Every ``.py`` file under ``root`` (default: the source package),
    sorted for deterministic tool output."""
    base = PACKAGE_DIR if root is None else root
    if base.is_file():
        return [base]
    return sorted(base.rglob("*.py"))


def module_name(path: pathlib.Path) -> str:
    """Dotted module name of a source file.

    Files under ``src/`` get their real import name
    (``src/repro/sketch/columnar.py`` -> ``repro.sketch.columnar``); files
    elsewhere (test fixtures, scratch snippets) fall back to their stem
    so tools can still key per-module configuration off the result.
    """
    resolved = pathlib.Path(path).resolve()
    try:
        relative = resolved.relative_to(SRC_DIR)
    except ValueError:
        return resolved.stem
    parts = list(relative.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def missing_packages() -> list[str]:
    """Promised sub-packages absent from the tree (should be empty)."""
    return [
        name
        for name in EXPECTED_PACKAGES
        if not (PACKAGE_DIR / name / "__init__.py").is_file()
    ]


@dataclass(frozen=True)
class BenchSuite:
    """One perf-gated bench: where its numbers live and how to rerun it."""

    name: str
    results_path: pathlib.Path
    baseline_path: pathlib.Path
    target: str


def bench_suites(root: pathlib.Path | None = None) -> dict[str, BenchSuite]:
    """Gated bench suites, derived from the committed baseline files.

    Every ``benchmarks/baselines/BENCH_<name>.json`` defines a suite
    whose fresh measurement is expected at
    ``benchmarks/results/BENCH_<name>.json`` and is regenerated by
    ``make bench-<name>`` — commit a baseline and the suite is gated.
    """
    base = (REPO_ROOT if root is None else root) / "benchmarks"
    suites: dict[str, BenchSuite] = {}
    baselines = base / "baselines"
    if baselines.is_dir():
        for path in sorted(baselines.glob("BENCH_*.json")):
            name = path.stem[len("BENCH_"):]
            suites[name] = BenchSuite(
                name=name,
                results_path=base / "results" / path.name,
                baseline_path=path,
                target=f"make bench-{name}",
            )
    return suites
