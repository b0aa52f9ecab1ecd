"""The shared tooling layer: bench-suite discovery and perf-gate exits.

``perf_regress`` promises *distinct* exit codes per failure mode (ok /
regressed / invalid / missing) so CI scripts can branch on them; each is
pinned here against fixture suites, with the real benchmark tree left
untouched.  The lifecycle benchmark's kernel tracing is checked against
the dispatch seam's kernel table the same read-only way.
"""

import importlib.util
import json

import pytest

from tools import _repo, perf_regress


def make_suite(tmp_path, name="unit", fresh=None, baseline=None):
    """A fixture BenchSuite with optional measurement/baseline files."""
    results_path = tmp_path / f"results_BENCH_{name}.json"
    baseline_path = tmp_path / f"baseline_BENCH_{name}.json"
    if fresh is not None:
        results_path.write_text(json.dumps({"updates_per_second": fresh}))
    if baseline is not None:
        baseline_path.write_text(json.dumps({"updates_per_second": baseline}))
    return _repo.BenchSuite(
        name=name,
        results_path=results_path,
        baseline_path=baseline_path,
        target=f"make bench-{name}",
    )


@pytest.fixture
def suites(tmp_path, monkeypatch):
    """Install fixture suites as the tool's whole bench universe."""

    def install(*built):
        table = {suite.name: suite for suite in built}
        monkeypatch.setattr(perf_regress._repo, "bench_suites", lambda: table)
        return table

    return install


def test_within_tolerance_exits_ok(tmp_path, suites, capsys):
    suites(make_suite(tmp_path, fresh={"a": 95.0}, baseline={"a": 100.0}))
    assert perf_regress.main([]) == perf_regress.EXIT_OK
    assert "all rates within tolerance" in capsys.readouterr().out


def test_regression_exits_one(tmp_path, suites, capsys):
    suites(make_suite(tmp_path, fresh={"a": 50.0}, baseline={"a": 100.0}))
    assert perf_regress.main([]) == perf_regress.EXIT_REGRESSION
    assert "REGRESSION" in capsys.readouterr().out


def test_missing_measurement_exits_three(tmp_path, suites, capsys):
    suites(make_suite(tmp_path, fresh=None, baseline={"a": 100.0}))
    assert perf_regress.main([]) == perf_regress.EXIT_MISSING
    assert "is missing" in capsys.readouterr().err


def test_missing_baseline_exits_three(tmp_path, suites):
    suites(make_suite(tmp_path, fresh={"a": 100.0}, baseline=None))
    assert perf_regress.main([]) == perf_regress.EXIT_MISSING


def test_invalid_json_exits_two(tmp_path, suites):
    suite = make_suite(tmp_path, fresh={"a": 100.0}, baseline={"a": 100.0})
    suite.results_path.write_text("{not json")
    suites(suite)
    assert perf_regress.main([]) == perf_regress.EXIT_INVALID


def test_unknown_suite_exits_two(tmp_path, suites):
    suites(make_suite(tmp_path, fresh={"a": 1.0}, baseline={"a": 1.0}))
    assert perf_regress.main(["no-such-suite"]) == perf_regress.EXIT_INVALID


def test_rate_missing_from_fresh_is_regression(tmp_path, suites):
    suites(make_suite(tmp_path, fresh={"a": 100.0}, baseline={"a": 100.0, "b": 5.0}))
    assert perf_regress.main([]) == perf_regress.EXIT_REGRESSION


def test_update_baseline_writes_floors(tmp_path, suites):
    suite = make_suite(tmp_path, fresh={"a": 100.0}, baseline=None)
    suites(suite)
    assert perf_regress.main(["--update-baseline"]) == perf_regress.EXIT_OK
    written = json.loads(suite.baseline_path.read_text())
    assert written["updates_per_second"]["a"] == pytest.approx(
        100.0 * perf_regress.BASELINE_FRACTION
    )
    # And a fresh run against the new floors passes.
    assert perf_regress.main([]) == perf_regress.EXIT_OK


def test_live_bench_suites_discovered():
    table = _repo.bench_suites()
    assert {"columnar", "sparse"} <= set(table)
    for suite in table.values():
        assert suite.baseline_path.exists()


def test_module_name_maps_src_tree():
    path = _repo.SRC_DIR / "repro" / "sketch" / "columnar.py"
    assert _repo.module_name(path) == "repro.sketch.columnar"
    assert _repo.module_name(_repo.REPO_ROOT / "scratch.py") == "scratch"


def test_lifecycle_tracing_counts_every_kernel():
    # benchmarks/lifecycle/tracing.py wraps every kernels.KERNEL_NAMES
    # entry and looks up its element counter in KERNEL_ELEMENTS; a kernel
    # added or renamed without a counter would crash `run.py --trace 1`.
    from repro.sketch.kernels import KERNEL_NAMES

    path = _repo.REPO_ROOT / "benchmarks" / "lifecycle" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_lifecycle_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert set(KERNEL_NAMES) <= set(tracing.KERNEL_ELEMENTS)
