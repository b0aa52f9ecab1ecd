"""Smoke tests of the lifecycle benchmark at toy sizes.

They check that every workload runs and verifies its answers, that the
reported metrics match ``BENCHMARK.json`` by name, that the traced run
attributes all ingest time to layers, and that a wrong answer or a
failed operation is caught rather than reported as a clean run.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

import compare
import lifecycle
import run
from repro import faults
from repro.faults import FaultPlan
from repro.service import GraphSession

SCHEMA = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _names(section: str) -> list[str]:
    return [metric["name"] for metric in SCHEMA[section]]


@pytest.fixture(scope="module", autouse=True)
def fast_harness():
    """At smoke sizes the host probe after each call and the repeated
    set-up constructions are much of a run's time; a constant probe and
    one construction keep the tests fast (the rescaling has its own
    test below)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            lifecycle, "probe_host",
            lambda: (lifecycle.PROBE_REFERENCE_S, lifecycle.LOOP_REFERENCE_S),
        )
        patch.setattr(lifecycle, "SETUP_REPEATS", 1)
        yield


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("lifecycle")
    return {
        (name, trace): lifecycle.measure(name, 0, 0.0, workdir, trace=trace, smoke=True)
        for name in lifecycle.WORKLOADS
        for trace in (False, True)
    }


def test_schema_names_workloads_and_metrics():
    assert SCHEMA["paths"] == ["benchmarks/lifecycle"]
    assert [w["name"] for w in SCHEMA["workloads"]] == list(lifecycle.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(lifecycle.WORKLOADS)
    names = _names("end_to_end") + _names("per_layer") + list(lifecycle.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in _names("end_to_end")
    assert all(0 < m["bound"] <= 0.25 for m in SCHEMA["end_to_end"])


def test_every_workload_runs_and_reports_the_schema(runs):
    for (name, trace), result in runs.items():
        checks = result["checks"]
        assert checks["wrong"] == 0 and checks["failed"] == 0, name
        section = "per_layer" if trace else "end_to_end"
        assert list(result[section]) == _names(section), name
        if not trace:
            assert list(result["wall"]) == _names(section), name
            for value in result["end_to_end"].values():
                assert math.isfinite(value) and value > 0, name


def test_layer_self_times_account_for_ingest(runs):
    for (name, trace), result in runs.items():
        if not trace:
            continue
        attribution = result["attribution"]
        wall = attribution["ingest_wall_s"]
        assert wall > 0
        assert abs(attribution["ingest_attributed_s"] - wall) <= 0.02 * wall, name


def test_host_clock_rescales_calls_by_the_probes_around_them(monkeypatch):
    probes = iter([(0.02, 0.002), (0.04, 0.006), (0.01, 0.001)])
    monkeypatch.setattr(lifecycle, "probe_host", lambda: next(probes))
    clock = lifecycle.HostClock()
    first, second = clock.add(3.0), clock.add(1.0, interpreted=True)
    clock.probe()
    third = clock.add(2.0)
    clock.probe()
    reference, loop = lifecycle.PROBE_REFERENCE_S, lifecycle.LOOP_REFERENCE_S
    assert first.scaled == pytest.approx(3.0 * reference / 0.03)
    assert second.scaled == pytest.approx(1.0 * loop / 0.004)
    assert third.scaled == pytest.approx(2.0 * reference / 0.025)
    assert third.wall == 2.0


def test_wrong_connected_answer_is_caught(tmp_path, monkeypatch):
    honest = GraphSession.connected
    monkeypatch.setattr(GraphSession, "connected", lambda self, u, v: not honest(self, u, v))
    result = lifecycle.measure("churn-n16", 0, 0.0, tmp_path, smoke=True)
    assert result["checks"]["wrong_answer_ratio"] > 0


def test_decode_failure_counts_as_failed_op(tmp_path):
    with faults.inject(FaultPlan.parse("decode-fail@query=0")):
        result = lifecycle.measure("churn-n16", 0, 0.0, tmp_path, smoke=True)
    assert result["checks"]["op_fail_ratio"] > 0


def test_compare_verdicts():
    base = [100.0 + i for i in range(10)]
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1)["verdict"] == "improved"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1)["verdict"] == "worse"
    assert compare.verdict(base, [v * 1.02 for v in base], "lower", 0.1)["verdict"] == "unchanged"
    noisy = [100.0, 140.0] * 5
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"
    assert compare.verdict(base, [v * 1.2 for v in base], "higher", 0.1)["verdict"] == "improved"
    one_seed_grew = base[:-1] + [base[-1] + 1]
    assert compare.verdict(base, one_seed_grew, "lower", 0.1)["verdict"] == "unchanged"
    assert compare.verdict(base, one_seed_grew, "lower", 0.1, exact=True)["verdict"] == "worse"


def test_compare_ignores_a_stale_result_of_a_failed_run(tmp_path):
    stale = tmp_path / "churn-n16-seed0.json"
    stale.write_text("{}")
    with pytest.raises(SystemExit, match="exited 2 without a result"):
        compare.run_once(tmp_path, None, "churn-n16", 0, tmp_path)
    assert not stale.exists()


def test_refuses_without_program_or_with_debug_switch(tmp_path, monkeypatch):
    args = ["--workload", "churn-n16", "--seed", "0"]
    assert run.main(args + ["--src", str(tmp_path)]) == 2
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert run.main(args) == 2
