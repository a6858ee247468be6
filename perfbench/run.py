"""Benchmark for the symqaoa workbench.

    python3 perfbench/run.py --workload label-sym --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from ``src/``
and outputs are checked against ``tests/_cache/dataset.jsonl``. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. NOTES.md describes the
workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: with two, some records drift in
# the last digits of ratio_achieved.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
SMOKE_SECONDS = 1.0
CAL_ITERATIONS = 500
_CAL_MATRIX = np.linspace(0.0, 1.0, 1600).reshape(40, 40) / 40.0
_CAL_STATE = np.exp(1j * np.linspace(0.0, 1.0, 4096))
_CAL_PHASE = np.exp(-1j * np.linspace(0.0, 2.0, 4096))


def environment() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Run:
    """Set-up repeated SETUP_REPEATS times, then rounds of operations."""

    def __init__(self, root: Path, workload: str, seed: int, build):
        self.root = root
        self.workload = workload
        self.ctx = workloads.Context(
            root, seed, root / ".bench_out" / f"run-{workload}-{os.getpid()}"
        )
        self.build = build
        self.attempted = 0
        self.failed = 0

    def setup(self, tracer=None):
        """Returns the median set-up time; the last set-up's operations are kept."""
        self.ctx.work_dir.mkdir(parents=True, exist_ok=True)
        times = []
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.pkg = workloads.import_package()
            if tracer is not None and rep == SETUP_REPEATS - 1:
                tracer.install(self.pkg)
                tracer.enabled = True
            self.ops = self.build(self.pkg, self.ctx)
            times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.enabled = False
        return statistics.median(times)

    def op(self, op, tracer=None) -> float:
        op.prepare()
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            elapsed = time.perf_counter() - start
            out = None
            fails = [f"{op.name} raised:\n{traceback.format_exc()}"]
        else:
            elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        if out is not None:
            try:
                fails = op.check(out)
            except Exception:
                fails = [f"{op.name} check raised:\n{traceback.format_exc()}"]
        self.attempted += 1
        if fails:
            self.failed += 1
            for message in fails:
                print(f"FAILED {self.workload}: {message}", file=sys.stderr)
        return elapsed

    def rounds(self, seconds: float, tracer=None) -> list[float]:
        """Whole rounds while the next one is expected to end within ``seconds``;
        at least one. Returns each round's summed operation time."""
        walls = []
        start = time.perf_counter()
        while not walls or (time.perf_counter() - start) + max(walls) <= seconds:
            walls.append(sum(self.op(op, tracer) for op in self.ops))
        return walls

    def samples(self, seconds: float) -> tuple[dict, dict]:
        """Operations in round order until the next one would end past ``seconds``;
        the first round always completes. Returns each operation's wall times
        and the same times divided by the calibration loop timed around them."""
        times = {op.name: [] for op in self.ops}
        scaled = {op.name: [] for op in self.ops}
        start = time.perf_counter()
        before = calibrate()
        first = True
        while True:
            for op in self.ops:
                seen = times[op.name]
                if not first and (time.perf_counter() - start) + max(seen) > seconds:
                    return times, scaled
                elapsed = self.op(op)
                after = calibrate()
                seen.append(elapsed)
                scaled[op.name].append(elapsed / ((before + after) / 2))
                before = after
            first = False

    def quality(self) -> dict:
        q = self.ctx.quality
        pmin = q.get("pmin", [])
        return {
            "quality.pmin_mean": (statistics.fmean(pmin) if pmin else 0.0, "depth"),
            "quality.censored": (q.get("censored", 0), "count"),
            "quality.reg_test_mae": (q.get("reg_test_mae", 0.0), "depth"),
            "quality.ens_test_mae": (q.get("ens_test_mae", 0.0), "depth"),
            "quality.failed_frac": (self.failed / max(self.attempted, 1), "ratio"),
            "dataset.exact_lines": (q.get("exact_lines", 0), "count"),
        }

    def close(self):
        shutil.rmtree(self.ctx.work_dir, ignore_errors=True)


def calibrate() -> float:
    """Wall time of a fixed loop shaped like the operations' work: small numpy
    products, dict updates, and elementwise complex updates on a 2^12 state.

    Other tenants move this machine's speed by up to 2x for seconds at a time.
    Dividing an operation's time by this loop's time, taken just before and
    after it, cancels most of that movement.
    """
    start = time.perf_counter()
    x = np.ones(len(_CAL_MATRIX))
    state = _CAL_STATE.copy()
    pairs = state.reshape(-1, 2, 64)
    counts: dict[int, int] = {}
    for i in range(CAL_ITERATIONS):
        x = np.tanh(_CAL_MATRIX @ x) + 0.5
        counts[i % 37] = counts.get(i % 37, 0) + i
        state *= _CAL_PHASE
        pairs[:, 0, :] += 0.1 * pairs[:, 1, :]
    return time.perf_counter() - start


def end_to_end(run: Run, seconds: float) -> dict:
    setup_s = run.setup()
    times, scaled = run.samples(seconds)
    round_s = sum(statistics.median(v) for v in times.values())
    print(f"round wall time (sum of per-operation medians): {round_s:.4f} s")
    return {
        "round_cal": (sum(statistics.median(v) for v in scaled.values()), "cal"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run: Run, seconds: float) -> dict:
    """Untraced rounds for the first half of the time, traced rounds after."""
    tracer = tracing.Tracer()
    run.setup(tracer)
    setup_spans = list(tracer.spans)
    tracer.spans.clear()
    plain = run.rounds(seconds / 2)
    traced = run.rounds(seconds / 2, tracer)
    metrics = tracing.layer_metrics(tracer.spans, len(traced), statistics.fmean(traced))
    for name, span_name in (("graphs.generate_s", "graphs.generate"),
                            ("dataset.load_dataset_s", "dataset.load_dataset")):
        value, unit = metrics[name]
        setup_time = sum(s[2] - s[1] for s in setup_spans if s[0] == span_name)
        metrics[name] = (value + setup_time, unit)
    metrics["trace.round_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_round_s"] = (statistics.median(plain), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics.update(run.quality())
    out = run.root / ".bench_out" / f"spans-{run.workload}-seed{run.ctx.seed}.jsonl"
    tracer.uninstall()
    tracer.write(out)
    return metrics


def result_line(run: Run, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def print_table(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>16.6g} {unit}")


def find_root() -> Path:
    """The checkout root: the directory holding src/symqaoa and the cached dataset."""
    root = HERE.parent
    needed = (root / "src" / "symqaoa" / "__init__.py", root / "tests" / "_cache" / "dataset.jsonl")
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"error: not a symqaoa checkout, missing {', '.join(missing)} under {root}")
    sys.path.insert(0, str(root / "src"))
    return root


def smoke(root: Path) -> int:
    """Criterion-10 instances only: both metric sets must carry every name and
    unit BENCHMARK.json lists, and no operation may fail."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for trace, key, measure in ((0, "end_to_end", end_to_end), (1, "per_layer", per_layer)):
        run = Run(root, "smoke", workloads.CACHE_SEED, workloads.smoke)
        try:
            metrics = measure(run, SMOKE_SECONDS)
        finally:
            run.close()
        print(f"--trace {trace}")
        print_table(metrics)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: unit for name, (_, unit) in metrics.items()}
        problems += [f"{key}: {n} missing or not in {u}" for n, u in want.items() if got.get(n) != u]
        problems += [f"{key}: {n} printed but not listed" for n in got if n not in want]
        if run.failed:
            problems.append(f"--trace {trace}: {run.failed} of {run.attempted} operations failed")
    for problem in problems:
        print(f"SMOKE: {problem}", file=sys.stderr)
    print("smoke", "ok" if not problems else "FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.CACHE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check metric names on the criterion-10 instances")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    root = find_root()
    warnings.simplefilter("ignore")
    print(json.dumps({"env": environment()}))
    if args.smoke:
        return smoke(root)
    run = Run(root, args.workload, args.seed, workloads.WORKLOADS[args.workload])
    try:
        metrics = (per_layer if args.trace else end_to_end)(run, args.seconds)
    finally:
        run.close()
    print_table(metrics)
    print(result_line(run, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
