"""Compare two versions of the program on the lifecycle benchmark.

    python3 benchmarks/lifecycle/compare.py --base HEAD~1 --head HEAD --pairs 10

``--base`` and ``--head`` name a git commit (its ``src/`` is extracted
under ``.bench_build/compare/``) or a directory holding a ``repro``
package.  Both sides run this checkout's benchmark code for
``BENCHMARK.json``'s ``run_seconds``.  Pair ``i`` runs every workload on
both sides with seed ``FIRST_SEED + i``, the side that goes first
alternating from pair to pair.

For every (workload, end-to-end metric) the report gives each side's
median and quartiles, the share of pairs the head wins (ties count for
neither side), and a verdict:

* ``worse``      — for a metric that repeats exactly for a seed
  (``EXACT``), the head reads worse on any pair;
* ``improved``   — the head wins at least 9 of 10 pairs and the medians
  differ by more than the base's own quartile spread;
* ``unresolved`` — the base's quartile spread is wider than the bound,
  and not every head run reads better than every base run;
* ``worse``      — the head's median is worse than the base's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unchanged``  — otherwise.

The cold cut latency, which only the workloads that ask cuts report, is
judged the same way with its bound in ``TAIL_BOUNDS``.

The exit code is 1 when any metric is ``worse``, when the head fails
more operations than the base, or when either side answers wrongly; 2
when the runs cannot be compared.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"

#: Provenance keys that may differ between comparable runs: the commit
#: is what is compared, and load average is observed, not configured.
_MAY_DIFFER = {"commit", "loadavg", "seed"}

#: Seed of the first pair: apart from seed 0 (the committed results) and
#: seeds 1-70 (the runs the bounds were measured on).
FIRST_SEED = 100

#: Metrics a run computes from the rounds every run completes, so that
#: one seed gives one value on one program.
EXACT = {"checkpoint_bytes"}

#: Latencies outside ``BENCHMARK.json`` (powerlaw-500 asks no cut, and
#: every workload there reports every metric) that are gated here on the
#: workloads that report them.  Bound set like BENCHMARK.json's timings
#: (README): ten-seed spreads of up to 0.117 and a two-set shift of up
#: to 0.030, measured while the host's wall clock spread up to 0.54.
TAIL_BOUNDS = {"cut_cold_p50_ms": ("lower", 0.25)}


def _git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, timeout=60)
    if done.returncode != 0:
        raise SystemExit(f"git {' '.join(args)} failed: {done.stderr.decode().strip()}")
    return done.stdout.decode()


def resolve_src(spec: str) -> tuple[Path, str | None]:
    """(source tree, commit) for a directory or a git revision."""
    path = Path(spec)
    if (path / "repro" / "__init__.py").is_file():
        return path.resolve(), None
    sha = _git("rev-parse", "--verify", f"{spec}^{{commit}}").strip()
    target = ROOT / ".bench_build" / "compare" / sha
    if not (target / "src" / "repro" / "__init__.py").is_file():
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", sha, "src"], capture_output=True, timeout=120
        )
        if archive.returncode != 0:
            raise SystemExit(f"git archive {sha} failed: {archive.stderr.decode().strip()}")
        target.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(target, filter="data")
    return target / "src", sha


def run_once(src: Path, commit: str | None, workload: str, seed: int, out: Path) -> dict:
    """One run's full result; exit 1 (a wrong answer or a failed
    operation) still yields one, which the report counts."""
    result_file = out / f"{workload}-seed{seed}.json"
    result_file.unlink(missing_ok=True)
    command = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--src", str(src), "--out", str(out),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode not in (0, 1) or not result_file.is_file():
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(
            f"{workload} seed {seed} on {src} exited {done.returncode} without a result"
        )
    result = json.loads(result_file.read_text())
    if commit is not None:
        result["provenance"]["commit"] = commit
    return result


def _environment(result: dict) -> dict:
    return {k: v for k, v in result["provenance"].items() if k not in _MAY_DIFFER}


def _value(result: dict, section: str, name: str) -> float:
    value = result[section][name]
    return value[0] if section == "tails" else value  # a tail is [value, sample count]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], head: list[float], better: str, bound: float,
            exact: bool = False) -> dict:
    """Paired comparison of one metric; ``base[i]`` and ``head[i]`` share a seed."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    b1, b_med, b3 = _quartiles(base)
    h1, h_med, h3 = _quartiles(head)
    worse_by = -sign * (h_med - b_med) / abs(b_med) if b_med else 0.0
    spread = (b3 - b1) / abs(b_med) if b_med else 0.0
    every_run_better = (min(head) > max(base)) if sign > 0 else (max(head) < min(base))
    if exact and losses:
        label = "worse"
    elif wins >= 0.9 * len(base) and sign * (h_med - b_med) > b3 - b1:
        label = "improved"
    elif spread > bound and not every_run_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    else:
        label = "unchanged"
    return {
        "base": [b1, b_med, b3], "head": [h1, h_med, h3],
        "win_fraction": wins / len(base), "worse_by": worse_by, "spread": spread,
        "verdict": label,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision or source directory")
    parser.add_argument("--head", required=True, help="git revision or source directory")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", default=str(ROOT / ".bench_build" / "compare" / "runs"))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    schema = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in schema["workloads"]]
    sides = {"base": resolve_src(args.base), "head": resolve_src(args.head)}

    results: dict[str, dict[str, list]] = {"base": {}, "head": {}}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for workload in workloads:
            for side in order:
                src, commit = sides[side]
                out = Path(args.out) / side
                result = run_once(src, commit, workload, FIRST_SEED + i, out)
                results[side].setdefault(workload, []).append(result)
                print(f"pair {i} {workload} {side}: done", file=sys.stderr)

    every = [r for side in results.values() for runs in side.values() for r in runs]
    environments = {json.dumps(_environment(r), sort_keys=True) for r in every}
    if len(environments) > 1:
        print("refused: the runs' provenance differs beyond the commit:", file=sys.stderr)
        for environment in sorted(environments):
            print(f"  {environment}", file=sys.stderr)
        return 2

    status = 0
    print(f"{'workload':<14} {'metric':<22} {'base q1/med/q3':>32} {'head q1/med/q3':>32} "
          f"{'wins':>5} {'verdict':>10}")
    gates = [("end_to_end", m["name"], m["better"], m["bound"]) for m in schema["end_to_end"]]
    gates += [("tails", name, better, bound) for name, (better, bound) in TAIL_BOUNDS.items()]
    for workload in workloads:
        base_runs, head_runs = results["base"][workload], results["head"][workload]
        for section, name, better, bound in gates:
            if any(name not in r[section] for r in base_runs + head_runs):
                continue
            row = verdict(
                [_value(r, section, name) for r in base_runs],
                [_value(r, section, name) for r in head_runs],
                better, bound, exact=name in EXACT,
            )
            status = max(status, int(row["verdict"] == "worse"))
            base_text = "/".join(f"{v:.4g}" for v in row["base"])
            head_text = "/".join(f"{v:.4g}" for v in row["head"])
            print(f"{workload:<14} {name:<22} {base_text:>32} {head_text:>32} "
                  f"{row['win_fraction']:>5.2f} {row['verdict']:>10}")
        failed = {side: sum(r["checks"]["failed"] for r in runs) /
                  sum(r["checks"]["attempted"] for r in runs)
                  for side, runs in (("base", base_runs), ("head", head_runs))}
        wrong = sum(r["checks"]["wrong"] for r in base_runs + head_runs)
        print(f"{workload:<14} {'op_fail_ratio':<22} {failed['base']:>32.4g} "
              f"{failed['head']:>32.4g}")
        if failed["head"] > failed["base"] or wrong:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
