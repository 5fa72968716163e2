"""dirmusic benchmark: one command per workload run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_study --seed 1 --seconds 30 --trace 0

Set-up (interpreter start, ``import dirmusic``, inputs built from the
seed) is timed from outside, several times, by starting workload
processes that report ``READY``; the last one then runs the timed loop.
The metrics named in ``BENCHMARK.json`` are printed one per line with
their units, then as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every correctness check passed; it is 2, with no result printed, when
the run itself could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from bench_stats import fail_ratio, median

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def run_worker(cmd, env, root: Path, deadline: float):
    """Run one workload process; return its set-up time (up to its
    ``READY`` line) and its last output line, killing it at ``deadline``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline().strip() == "READY"
        setup_s = time.perf_counter() - t0
        lines = [ln for ln in proc.stdout.read().splitlines() if ln.strip()]
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if not ready or code != 0:
        raise BenchError(f"workload process failed (exit code {code})")
    return setup_s, lines[-1] if lines else None


def metrics_for(spec_metrics, values: dict) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "dirmusic" / "__init__.py").is_file():
        raise BenchError(f"{src / 'dirmusic'} not found: run from the root of a dirmusic checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {workloads}")

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch, prefix=f"{args.workload}-"))
    cmd = [
        sys.executable, str(HERE / "bench_worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir), "--src", str(src),
    ]
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_REPEATS - 1):
            setups.append(run_worker(cmd + ["--setup-only"], env, root, deadline)[0])
        setup_s, last_line = run_worker(cmd, env, root, deadline)
        setups.append(setup_s)
        if last_line is None:
            raise BenchError("workload process printed no result")
        result = json.loads(last_line)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    if args.trace:
        values = result["per_layer"]
        metrics = metrics_for(spec["per_layer"], values)
    else:
        values = {
            "setup_s": median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_ratio": 1.0 - fail_ratio(result["attempted"], result["failed"]),
            "ops_per_s": result["ops_per_s"],
            "op_ms.p50": result["op_ms.p50"],
            "op_ms.tail": result["op_ms.tail"],
            "accuracy": result["accuracy"],
        }
        metrics = metrics_for(spec["end_to_end"], values)

    env_info = result["environment"]
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("# environment " + json.dumps(env_info, sort_keys=True))
    if not args.trace:
        print(f"# setup_s samples {[round(s, 4) for s in setups]}")
        print(f"# op_ms.tail is the {result['op_tail']}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, (value, unit, note) in result.get("report", {}).items():
        print(f"  {name} = {value:.6g} {unit} ({note})")
    correct = result["failed"] == 0
    for label, ok, detail in result["checks"]:
        correct = correct and bool(ok)
        print(f"check {'ok' if ok else 'FAILED'}: {label}: {detail}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
