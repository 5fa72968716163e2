"""One workload process: set up from the seed, then run the timed loop.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.
It prints ``READY`` once set-up is done (the parent times set-up up to
that line), then, unless ``--setup-only``, one JSON line with the
measured figures and the results of the correctness checks.

With ``--trace 1`` it repeats a fixed unit of work, once untraced and
once traced, and reports per-layer figures for one unit instead.
"""

import os

# Pin BLAS threads before numpy is imported, here and in every CLI child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dirmusic  # noqa: E402
from bench_stats import (  # noqa: E402
    fail_ratio,
    median,
    pooled_mean_var,
    tail,
    within,
)
from bench_trace import Tracer  # noqa: E402
from dirmusic import experiments, manifold, pattern, pipeline, signal  # noqa: E402
from dirmusic import io as dio  # noqa: E402

HERE = Path(__file__).resolve().parent
SUBSET4 = (0.0, 60.0, 120.0, 180.0)
RATE_HZ = 10e9
THRESHOLD_DEG = 2.0
Z = 4.0  # Monte Carlo scatter allowed by the statistical checks, in standard errors

# The console-script entry point of ``dirmusic``, as a user runs it.
CLI_ENTRY = "import sys; from dirmusic.cli import run; sys.argv[0] = 'dirmusic'; run()"
CLI_TIMEOUT_S = 120.0


def wrapped_error(estimate_deg: float, true_deg: float) -> float:
    """Signed circular difference in (-180, 180], computed here rather
    than by the program under test."""
    err = (estimate_deg - true_deg) % 360.0
    return err - 360.0 if err > 180.0 else err


def derive_seed(*keys) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def short_pulse():
    """The 256-sample default pulse that criterion 9 places in its recordings."""
    return signal.pd_pulse(signal.PulseModel(), signal.SamplingSpec(RATE_HZ, 256))


class InProcess:
    """A workload whose unit of work runs in the workload process."""

    RUSAGE = resource.RUSAGE_SELF  # whose peak RSS is the program's

    def timed_unit(self, traced: bool, tracer: Tracer):
        """Run ``unit()``, traced or not: ``(wall_s, attempted, failed, table)``."""
        if traced:
            tracer.install()
            tracer.reset()
        t0 = time.perf_counter()
        try:
            attempted, failed = self.unit()
        finally:
            wall_s = time.perf_counter() - t0
            tracer.uninstall()
        return wall_s, attempted, failed, tracer.table() if traced else None


class McStudy(InProcess):
    """The acceptance settings through the public sweep functions.

    One pass runs every setting at ``TRIALS`` trials with its own master
    seed; passes repeat until the time is up, and the anchors pool all
    passes. The timed operation is one pass; the throughput counts trials.
    """

    ALIASES = {"ops_per_s": ("trials_per_s", 1.0, "1/s")}

    # Small enough that a 30 s run makes over 100 passes, so that the
    # tail of the pass time is resolved at p90.
    TRIALS = 3
    SNR_DB = (10.0, 5.0, 0.0, -5.0, -10.0)
    EPSILON = (0.025, 0.05, 0.075, 0.1)
    ELEMENTS = (1, 2, 4, 6, 8, 10)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        base = experiments.TrialConfig(n_trials=self.TRIALS)
        self.sweeps = (
            ("snr_6el", "run_snr_sweep", base, self.SNR_DB),
            ("eps_6el", "run_manifold_error_sweep", base, self.EPSILON),
            ("elements", "run_element_sweep", replace(base, manifold_error=0.05), self.ELEMENTS),
            ("snr_4el", "run_snr_sweep", replace(base, n_elements=4, offsets_deg=SUBSET4), self.SNR_DB),
        )
        self.trials_per_pass = self.TRIALS * sum(len(values) for *_, values in self.sweeps)

    def one_pass(self, index: int, rows: dict) -> int:
        """Run every setting once; return the number of failed trials."""
        failed = 0
        master = derive_seed(self.seed, index)
        for name, runner, cfg, values in self.sweeps:
            try:
                report = getattr(experiments, runner)(replace(cfg, seed=master), list(values))
            except Exception:
                traceback.print_exc()
                failed += self.TRIALS * len(values)
                continue
            for row in report.rows:
                rows.setdefault((name, row.setting), []).append(row)
        return failed

    def measure(self, seconds: float) -> dict:
        rows: dict = {}
        pass_s, failed = [], 0
        start = time.perf_counter()
        while not pass_s or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            failed += self.one_pass(len(pass_s), rows)
            pass_s.append(time.perf_counter() - t0)
        result = self.judge(rows)
        result.update(
            attempted=self.trials_per_pass * len(pass_s),
            failed=failed,
            ops_per_s=self.trials_per_pass / median(pass_s),
            op_s=pass_s,
        )
        return result

    def unit(self) -> tuple[int, int]:
        rows: dict = {}
        return self.trials_per_pass, self.one_pass(0, rows)

    def judge(self, rows: dict) -> dict:
        all_rows = [r for group in rows.values() for r in group]
        n_all = sum(r.n_trials for r in all_rows)
        accuracy = sum(r.accuracy * r.n_trials for r in all_rows) / n_all if n_all else 0.0

        def pooled_accuracy(key):
            group = rows.get(key, [])
            n = sum(r.n_trials for r in group)
            return n, (sum(r.accuracy * r.n_trials for r in group) / n if n else math.nan)

        n6, acc6 = pooled_accuracy(("snr_6el", -10.0))
        n10, acc10 = pooled_accuracy(("elements", 10.0))
        var6 = math.nan
        if n6:
            groups = [(r.n_trials, r.mean_err, r.std_err**2) for r in rows[("snr_6el", -10.0)]]
            var6 = pooled_mean_var(groups)[2]

        def binomial_se(p, n):
            return math.sqrt(p * (1.0 - p) / n) if n else math.inf

        # Criterion 1 band for 6 elements at -10 dB.
        ok6 = within(acc6, 0.6778, 0.7778, Z * binomial_se(0.7278, n6))
        # Criterion 2 band; the standard error of a sample variance is
        # var * sqrt((kurtosis - 1) / n), with kurtosis bounded by 4
        # (3.07 measured over 3600 trials).
        var_se = 3.7291 * math.sqrt(3.0 / n6) if n6 else math.inf
        okv = within(var6, 0.7291, 3.7291, Z * var_se)
        # Criterion 4 fails at 10 elements by construction; the anchor is
        # held between the 3600-trial value at the default seed (0.7544)
        # and the geometric ceiling of the default protocol (0.765).
        ok10 = within(acc10, 0.7544, 0.765, Z * binomial_se(0.76, n10) + Z * binomial_se(0.76, 3600))
        return {
            "accuracy": accuracy,
            "checks": [
                ["accuracy.6el_-10dB within criterion-1 band", ok6, f"{acc6:.4f}, n={n6}"],
                ["errvar.6el_-10dB within criterion-2 band", okv, f"{var6:.4f}, n={n6}"],
                ["accuracy.10el_eps0.05 near its documented value", ok10, f"{acc10:.4f}, n={n10}"],
            ],
            "report": {
                "accuracy.6el_-10dB": [acc6, "ratio", f"n={n6}"],
                "errvar.6el_-10dB": [var6, "deg2", f"n={n6}"],
                "accuracy.10el_eps0.05": [acc10, "ratio", f"n={n10}"],
            },
        }


class EstimateFile:
    """``dirmusic estimate`` on a 4 x 200k waveform CSV, one fresh
    process per call."""

    ALIASES = {"op_ms.p50": ("latency_s.p50", 1e-3, "s"), "op_ms.tail": ("latency_s.tail", 1e-3, "s")}
    RUSAGE = resource.RUSAGE_CHILDREN  # the CLI processes are the program
    N_SAMPLES = 200_000
    SNR_DB = 25.0  # over the 256-sample pulse window
    ARGS = ("--offsets", ",".join(f"{o:g}" for o in SUBSET4), "--taps", "1001")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2]))
        self.theta = float(rng.uniform(1.0, 360.0))
        n = self.N_SAMPLES
        start = int(rng.integers(int(0.4 * n), int(0.6 * n)))
        pulse = short_pulse()
        array = manifold.ArrayConfig(SUBSET4)
        channels = np.zeros((len(SUBSET4), n))
        gains = manifold.steering_vector(pattern.DEFAULT_PATTERN, array, self.theta)
        channels[:, start : start + pulse.size] = signal.synthesize_clean(gains, pulse)
        power = float(np.mean(channels[:, start : start + pulse.size] ** 2))
        channels += rng.normal(0.0, math.sqrt(power / 10.0 ** (self.SNR_DB / 10.0)), channels.shape)
        fd, name = tempfile.mkstemp(dir=self.workdir, prefix="recording-", suffix=".csv")
        os.close(fd)
        self.path = Path(name)
        dio.write_waveform_csv(self.path, pipeline.Recording(rate_hz=RATE_HZ, channels=channels))

    def call(self, traced_out: Path | None = None) -> tuple[float, str | None, float]:
        """One CLI call: ``(latency_s, error or None, abs angle error)``."""
        if traced_out is None:
            cmd = [sys.executable, "-c", CLI_ENTRY]
        else:
            cmd = [sys.executable, str(HERE / "bench_traced_cli.py"), str(traced_out)]
        cmd += ["estimate", str(self.path), *self.ARGS]
        t0 = time.perf_counter()
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, "timed out", math.nan
        latency = time.perf_counter() - t0
        if done.returncode != 0:
            return latency, f"exit code {done.returncode}: {done.stderr.strip()[-200:]}", math.nan
        try:
            theta_hat = float(json.loads(done.stdout)["theta_hat_deg"])
        except (ValueError, KeyError) as exc:
            return latency, f"unreadable output ({exc})", math.nan
        return latency, None, abs(wrapped_error(theta_hat, self.theta))

    def measure(self, seconds: float) -> dict:
        latencies, errors, problems = [], [], []
        start = time.perf_counter()
        while not latencies or time.perf_counter() - start < seconds:
            latency, problem, err = self.call()
            latencies.append(latency)
            if problem is None:
                errors.append(err)
            else:
                problems.append(problem)
        result = self.judge(errors, problems)
        result.update(
            attempted=len(latencies),
            failed=len(problems),
            ops_per_s=1.0 / median(latencies),
            op_s=latencies,
        )
        return result

    def timed_unit(self, traced: bool, tracer: Tracer):
        """One CLI call, traced or not: ``(wall_s, attempted, failed, table)``.
        The child process runs its own tracer; ``tracer`` is unused."""
        spans_path = self.workdir / "cli-spans.json"
        latency, problem, err = self.call(spans_path if traced else None)
        if problem is None and err >= THRESHOLD_DEG:
            problem = f"error {err:.3f} deg"
        if problem is not None:
            print(f"estimate call failed: {problem}", file=sys.stderr)
            return latency, 1, 1, None
        return latency, 1, 0, json.loads(spans_path.read_text()) if traced else None

    def judge(self, errors, problems) -> dict:
        worst = max(errors) if errors else math.nan
        ok = not problems and worst < THRESHOLD_DEG
        hits = sum(e < THRESHOLD_DEG for e in errors)
        attempted = len(errors) + len(problems)
        return {
            "accuracy": hits / attempted,
            "checks": [
                ["every call exits 0", not problems, "; ".join(problems[:3]) or "ok"],
                [
                    "theta_hat_deg within 2 deg of the known direction",
                    ok,
                    f"worst error {worst:.3f} deg, truth {self.theta:.3f} deg",
                ],
            ],
            "report": {},
        }


class PipelineStream(InProcess):
    """Short in-memory recordings through ``process_recording``, one at
    a time, in passes over a pool built in set-up."""

    ALIASES = {
        "ops_per_s": ("records_per_s", 1.0, "1/s"),
        "op_ms.p50": ("record_ms.p50", 1.0, "ms"),
        "op_ms.tail": ("record_ms.tail", 1.0, "ms"),
    }
    POOL = 256
    UNIT = 100  # records per traced unit
    N_SAMPLES = 4096
    SNR_DB = 10.0  # over the whole record, as in criterion 9
    TONE_HZ = 948e6

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        array = manifold.ArrayConfig(SUBSET4)
        self.array = array
        self.spec = pipeline.FilterSpec(low_hz=1.0e9, high_hz=2.0e9, n_taps=1001)
        pulse = short_pulse()
        t = np.arange(self.N_SAMPLES) / RATE_HZ
        self.records, self.thetas = [], []
        for child in np.random.SeedSequence([self.seed, 3]).spawn(self.POOL):
            rng = np.random.default_rng(child)
            theta = float(rng.uniform(1.0, 360.0))
            channels = np.zeros((len(SUBSET4), self.N_SAMPLES))
            gains = manifold.steering_vector(pattern.DEFAULT_PATTERN, array, theta)
            channels[:, 1500 : 1500 + pulse.size] = signal.synthesize_clean(gains, pulse)
            power = float(np.mean(channels**2))
            channels += rng.normal(0.0, math.sqrt(power / 10.0 ** (self.SNR_DB / 10.0)), channels.shape)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            channels += math.sqrt(2.0 * power) * np.sin(2.0 * np.pi * self.TONE_HZ * t + phase)
            self.records.append(pipeline.Recording(rate_hz=RATE_HZ, channels=channels))
            self.thetas.append(theta)

    def process(self, index: int):
        """Process pool entry ``index``: ``(latency_s, signed error or None)``."""
        rec = self.records[index]
        t0 = time.perf_counter()
        try:
            result = pipeline.process_recording(rec, self.spec, pattern.DEFAULT_PATTERN, self.array)
        except Exception:
            traceback.print_exc()
            return time.perf_counter() - t0, None
        latency = time.perf_counter() - t0
        return latency, wrapped_error(result.estimate.angle_deg, self.thetas[index])

    def measure(self, seconds: float) -> dict:
        latencies, errors, cycle_s = [], {}, []
        failed = 0
        start = time.perf_counter()
        while not cycle_s or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            for index in range(self.POOL):
                latency, err = self.process(index)
                latencies.append(latency)
                if err is None:
                    failed += 1
                else:
                    errors[index] = err
            cycle_s.append(time.perf_counter() - t0)
        result = self.judge(list(errors.values()), failed)
        result.update(
            attempted=len(latencies),
            failed=failed,
            ops_per_s=self.POOL / median(cycle_s),
            op_s=latencies,
        )
        return result

    def unit(self) -> tuple[int, int]:
        failed = sum(self.process(i)[1] is None for i in range(self.UNIT))
        return self.UNIT, failed

    def judge(self, errors, failed: int) -> dict:
        abs_err = [abs(e) for e in errors]
        mae = sum(abs_err) / len(abs_err) if abs_err else math.nan
        std = float(np.std(errors)) if errors else math.nan
        hits = sum(e < THRESHOLD_DEG for e in abs_err)
        return {
            "accuracy": hits / (len(errors) + failed),
            "checks": [
                ["mae_deg within the criterion-9 bound (2 deg)", mae <= 2.0, f"{mae:.4f} deg, {len(errors)} records"],
                ["error std within the criterion-9 bound (2.5 deg)", std <= 2.5, f"{std:.4f} deg"],
            ],
            "report": {"mae_deg": [mae, "deg", f"{len(errors)} distinct records"]},
        }


WORKLOADS = {"mc_study": McStudy, "estimate_file": EstimateFile, "pipeline_stream": PipelineStream}


def peak_rss_mb(who: int) -> float:
    """Peak RSS of this process (``RUSAGE_SELF``) or of its largest
    waited-for child (``RUSAGE_CHILDREN``)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "dirmusic": dirmusic.__version__,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def cli_import_s() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dirmusic.cli"], check=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - t0


def unit_figures(table: dict, names, wall_s: float, untraced_s: float) -> dict:
    """Flatten one traced unit into per-layer figures."""
    rows, counts = table["rows"], table["counts"]
    figures = {}
    for name in names:
        calls, _, self_s = rows.get(name, (0, 0.0, 0.0))
        figures[f"{name}.calls"] = calls
        figures[f"{name}.self_s"] = self_s
    figures["signal.noise_draws"] = counts.get("signal.noise_draws", 0)
    estimates = figures["estimator.estimate_doa.calls"]
    figures["manifold.manifold_matrix.calls_per_estimate"] = (
        figures["manifold.manifold_matrix.calls"] / estimates if estimates else 0.0
    )
    read_s = figures["io.read_waveform_csv.self_s"]
    read_bytes = counts.get("io.read_waveform_csv.bytes", 0)
    figures["io.read_waveform_csv.mb_per_s"] = read_bytes / 1e6 / read_s if read_s else 0.0
    figures["trace.overhead_s"] = wall_s - untraced_s
    figures["trace.uncovered_s"] = wall_s - table["top_level_s"]
    return figures


def traced_run(work, tracer: Tracer, setup_table: dict, seconds: float) -> dict:
    """Repeat (untraced unit, traced unit, CLI import probe) until the
    time is up, alternating which unit runs first; report the median
    figures of one unit."""
    tracer.uninstall()
    # Warm-up, so that the first timed unit pays no lazy set-up.
    _, attempted, failed, _ = work.timed_unit(False, tracer)
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        walls = {}
        for traced in (False, True) if len(units) % 2 == 0 else (True, False):
            wall_s, n, f, table = work.timed_unit(traced, tracer)
            walls[traced] = wall_s
            attempted += n
            failed += f
            if traced:
                traced_table = table
        if traced_table is None:
            raise RuntimeError("the traced unit of work failed")
        figures = unit_figures(traced_table, tracer.names, walls[True], walls[False])
        figures["cli.import_s"] = cli_import_s()
        figures["io.write_waveform_csv.self_s"] = setup_table["rows"].get(
            "io.write_waveform_csv", (0, 0.0, 0.0)
        )[2]
        units.append(figures)
    per_layer = {key: median([u[key] for u in units]) for key in units[0]}
    return {
        "attempted": attempted,
        "failed": failed,
        "checks": [["every traced and untraced unit succeeds", failed == 0, f"{len(units)} unit pairs"]],
        "per_layer": per_layer,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(dirmusic.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"dirmusic imported from {dirmusic.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    work.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if tracer is not None:
        setup_table = tracer.table()
        tracer.reset()
        result = traced_run(work, tracer, setup_table, args.seconds)
        tracer.uninstall()
    else:
        result = work.measure(args.seconds)
        op_s = result.pop("op_s")
        level, tail_s, n = tail(op_s)
        result["op_ms.p50"] = 1e3 * median(op_s)
        result["op_ms.tail"] = 1e3 * tail_s
        result["op_tail"] = f"p{level:g} of {n} operations" + (
            "" if level > 50.0 else " (unresolved: fewer than 20 operations, so the median)"
        )
        fails = fail_ratio(result["attempted"], result["failed"])
        result["report"]["fail_ratio"] = [fails, "ratio", f"{result['failed']} of {result['attempted']}"]
        for metric, (alias, scale, unit) in work.ALIASES.items():
            result["report"][alias] = [result[metric] * scale, unit, metric]
    result["peak_rss_mb"] = peak_rss_mb(work.RUSAGE)
    result["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
