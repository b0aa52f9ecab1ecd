"""Run the GraphSession lifecycle benchmark.

    python3 benchmarks/lifecycle/run.py --workload churn-n16 --seed 0 --seconds 20 --trace 0
    python3 benchmarks/lifecycle/run.py --all --seed 0 --out results/set-a

Each workload runs in a fresh single-threaded subprocess that imports
the program from ``--src`` (default: ``src/`` of the checkout this file
sits in).  The command prints every metric by name with its unit and
sample count, then, as its last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, with
timings at a reference host speed (``lifecycle.HostClock``; the wall-clock
values are printed beside them and kept under ``"wall"`` in ``--out``);
``--trace 1`` reports its per-layer metrics, from rounds run with timing
wrappers installed (see ``tracing.py``).  The exit code is 0 only when
every answer was right and no operation failed; 2 means the run was
refused (bad arguments, a missing program, or an armed debug switch).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("churn-n16", "powerlaw-500", "querymix-w32")

#: A child may run this long beyond ``--seconds`` before it is killed:
#: input generation, set-up, the round that crosses the deadline (a
#: traced powerlaw-500 round with its twin takes about 10 s) and checks,
#: which take under 20 s together.  At the default ``--seconds`` a run
#: still ends inside 180 s.
CHILD_MARGIN_S = 120

#: Debug switches that change what the program does on every call.
_ARMED = {
    "REPRO_TRACE": lambda v: v not in ("", "0"),
    "REPRO_SANITIZE": lambda v: v not in ("", "0"),
    "REPRO_KERNEL": lambda v: v.strip().lower() not in ("", "auto"),
}


def _refusal() -> str | None:
    for variable, armed in _ARMED.items():
        value = os.environ.get(variable)
        if value is not None and armed(value):
            return f"{variable}={value!r} is set; the benchmark measures the default program"
    return None


def _bench_sha() -> str:
    """Hash of the files that decide what a run measures.  BENCHMARK.json
    is left out: its bounds judge runs and do not change them."""
    digest = hashlib.sha256()
    for path in (HERE / "run.py", HERE / "lifecycle.py", HERE / "tracing.py"):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit(src: Path) -> str | None:
    git = shutil.which("git")
    if git is None:
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(src.resolve().parent.parent))
    try:
        done = subprocess.run(
            [git, "-C", str(src), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def provenance(src: Path, seed: int) -> dict:
    """Where and on what a result was measured (compare.py checks it)."""
    import numpy
    from repro.sketch import kernels

    return {
        "commit": _commit(src),
        "seed": seed,
        "bench_sha": _bench_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.active_backend(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "threads": os.environ.get("OMP_NUM_THREADS"),
    }


def _units(schema: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in schema}


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _child(args) -> int:
    """Measure one workload in this process and report it."""
    from repro import faults

    import lifecycle

    if faults.ACTIVE is not None:
        print("refused: a fault plan is armed", file=sys.stderr)
        return 2
    schema = json.loads(BENCHMARK_JSON.read_text())
    workdir = ROOT / ".bench_build" / "lifecycle" / str(os.getpid())
    try:
        result = lifecycle.measure(
            args.workload, args.seed, args.seconds, workdir, trace=bool(args.trace),
            trace_out=args.trace_out and Path(args.trace_out),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["provenance"] = provenance(Path(args.src), args.seed)

    e2e_units = _units(schema["end_to_end"])
    units = _units(schema["per_layer"]) if args.trace else e2e_units
    reported = result["per_layer"] if args.trace else result["end_to_end"]
    missing = sorted(set(units) - set(reported))
    if missing:
        print(f"benchmark error: no value for {missing}", file=sys.stderr)
        return 2

    checks = result["checks"]
    print(f"# workload {args.workload} seed {args.seed}: {result['rounds']} rounds")
    if not args.trace:
        for name, value in result["end_to_end"].items():
            print(f"{name} {_format(value)} {e2e_units[name]} (n={result['samples'][name]}; "
                  f"wall clock here: {_format(result['wall'][name])})")
        for name, (value, count) in result["tails"].items():
            print(f"# {name} {value:.6g} ms (n={count}; reported, not gated)")
    print(f"wrong_answer_ratio {checks['wrong_answer_ratio']:.6g} ratio (n={checks['checked']})")
    print(f"op_fail_ratio {checks['op_fail_ratio']:.6g} ratio (n={checks['attempted']})")
    if checks["cut_answers"]:
        print(f"cut_rel_err_p50 {checks['cut_rel_err_p50']:.6g} ratio (n={checks['cut_answers']})")
    if args.trace:
        for name, value in result["per_layer"].items():
            print(f"{name} {_format(value)} {units[name]}")
        attribution = result["attribution"]
        print(f"# ingest wall {attribution['ingest_wall_s']:.4f} s, attributed to layers "
              f"{attribution['ingest_attributed_s']:.4f} s")
    if not all(math.isfinite(reported[name]) for name in units):
        print("benchmark error: a metric is not a finite number", file=sys.stderr)
        return 2
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        suffix = "-trace" if args.trace else ""
        (out / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n"
        )
    correct = checks["wrong"] == 0
    line = {
        "correct": correct,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {
            name: {"value": reported[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(line))
    return 0 if correct and checks["failed"] == 0 else 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOAD_NAMES)
    target.add_argument("--all", action="store_true", help="every workload, one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="with --trace 1: write every span as JSONL here")
    parser.add_argument("--out", help="directory for the full per-workload result JSON")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the program's source tree (default: src/ beside the benchmark)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    refusal = _refusal()
    if refusal:
        print(f"refused: {refusal}", file=sys.stderr)
        return 2
    if args.child:
        return _child(args)
    src = Path(args.src).resolve()
    if not (src / "repro" / "__init__.py").is_file() or not BENCHMARK_JSON.is_file():
        print(f"refused: no program at {src} (or no {BENCHMARK_JSON.name})", file=sys.stderr)
        return 2
    if args.trace_out and (not args.trace or args.all):
        print("refused: --trace-out needs --trace 1 and one --workload", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
    env = dict(
        os.environ,
        PYTHONPATH=str(src),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    status = 0
    for workload in WORKLOAD_NAMES if args.all else (args.workload,):
        command = [
            sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--src", str(src),
        ]
        if args.out:
            command += ["--out", str(Path(args.out).resolve())]
        if args.trace_out:
            command += ["--trace-out", str(Path(args.trace_out).resolve())]
        timeout = args.seconds + CHILD_MARGIN_S
        try:
            done = subprocess.run(command, env=env, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"benchmark error: {workload} ran past {timeout:g} s", file=sys.stderr)
            return 2
        status = max(status, done.returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
