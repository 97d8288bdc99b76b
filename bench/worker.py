"""One benchmark process: set up a workload, run it, check it, report JSON.

Started by run.py with BLAS pinned to one thread. Modes:

  setup    set up (import, inputs, warm-up) and report the set-up time only;
  measure  set up, then repeat passes until --seconds of task time have
           run (and the workload's tail percentile has at least 10 samples
           beyond it), then check every output;
  trace    set up, then run the workload's fixed number of passes, each
           once untraced and once traced, and report the per-layer split.

The last line on stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import gridvar  # noqa: E402
import workloads  # noqa: E402

if Path(gridvar.__file__).resolve().parent != ROOT / "src" / "gridvar":
    raise SystemExit(f"imported gridvar from {gridvar.__file__}, not from this checkout")

TAIL_PERCENTILE = 90.0
TAIL_MIN_BEYOND = 10  # samples beyond TAIL_PERCENTILE before a run may end
# Task times are rescaled to a machine on which calibration_loop() takes this
# long, using the median calibration of the same pass.
CALIBRATION_REF_S = 5.0e-3
WALL_LIMIT_S = 120.0  # stop adding passes for the tail after this much wall time
OUT_DIR = ".bench_out"  # span files and the CLI's scratch files, in the checkout


_CAL_TABLE = np.add.outer(np.linspace(0.0, 1.0, 300), np.linspace(0.0, 1.0, 400))


def calibration_loop() -> float:
    """Seconds taken by a fixed mix of the kinds of work gridvar does, without
    gridvar: a table recursion over bitmasks with scalar numpy reads (the
    packing DP), tuple and integer arithmetic (cell masks), shift-subtract on
    a small grid (osc_k) and rank-one updates of a 300 x 400 table (simplex
    pivots). It measures how fast the machine runs at that moment."""
    start = time.perf_counter()
    table = np.zeros(2048)
    for mask in range(2046, -1, -1):
        low = ~mask & (mask + 1)
        best = table[mask | low]
        other = table[mask | 1]
        table[mask] = (other if other > best else best) + 1.0
    total = 0
    for cell in itertools.product(range(12), range(12), range(8)):
        idx = 0
        for c in cell:
            idx = idx * 12 + c
        total |= 1 << (idx & 63)
    grid = _CAL_TABLE[:33, :33]
    for _ in range(60):
        diff = grid[2:] - 2.0 * grid[1:-1] + grid[:-2]
        total += int(np.max(np.abs(diff)) > 1.0)
    work = _CAL_TABLE.copy()
    for row in range(3):
        work -= np.outer(work[:, row], work[row]) * 1e-3
    return time.perf_counter() - start


def run_pass(workload, index: int, tracer=None, calibrations=None) -> list[tuple]:
    """Run one pass; returns (task, seconds, output, error) per task. Given a
    `calibrations` list, a calibration loop runs after each task, untimed."""
    out = []
    for position, task in enumerate(workload.tasks(index)):
        if tracer is not None:
            tracer.task = position
        start = time.perf_counter()
        try:
            result, error = task.call(), None
        except Exception as exc:  # a task that raises is a recorded failure
            result, error = None, f"{type(exc).__name__}: {exc}"
        out.append((task, time.perf_counter() - start, result, error))
        if calibrations is not None:
            calibrations.append(calibration_loop())
    return out


def check_samples(samples) -> tuple[int, list[dict], bool]:
    """Verified count, failures (task, reason), and whether every failure
    was on a pinned defect input."""
    verified = 0
    failures: dict[str, str] = {}
    failure_counts: dict[str, int] = {}
    only_defects = True
    for task, _, result, error in samples:
        reason = error if error is not None else task.check(result)
        if reason is None:
            verified += 1
            continue
        failures.setdefault(task.name, reason)
        failure_counts[task.name] = failure_counts.get(task.name, 0) + 1
        only_defects = only_defects and task.defect
    listed = [{"task": name, "times": failure_counts[name], "reason": reason}
              for name, reason in failures.items()]
    return verified, listed, only_defects


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def measure(workload, seconds: float, setup_s: float) -> dict:
    samples = []
    scaled = []  # task seconds at the reference machine speed
    calibrations: list[float] = []
    timed = 0.0
    index = 0
    wall_start = time.perf_counter()
    beyond = 0
    while timed < seconds or (beyond < TAIL_MIN_BEYOND
                              and time.perf_counter() - wall_start < WALL_LIMIT_S):
        pass_cal: list[float] = []
        batch = run_pass(workload, index, calibrations=pass_cal)
        factor = CALIBRATION_REF_S / float(np.median(pass_cal))
        scaled.extend(dt * factor for _, dt, _, _ in batch)
        calibrations.extend(pass_cal)
        index += 1
        samples.extend(batch)
        timed += sum(dt for _, dt, _, _ in batch)
        beyond = math.floor(len(samples) * (1.0 - TAIL_PERCENTILE / 100.0))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = [dt for _, dt, _, _ in samples]
    per_task: dict[str, list[float]] = {}
    for task, dt, _, _ in samples:
        per_task.setdefault(task.name, []).append(dt)
    verified, failures, only_defects = check_samples(samples)
    attempted = len(samples)
    failed = attempted - verified
    return {
        "correct": only_defects,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "verified_per_s": {"value": verified / sum(scaled), "unit": "1/s"},
            "task_p50_ms": {"value": 1000.0 * percentile(scaled, 50.0), "unit": "ms"},
            "task_tail_ms": {"value": 1000.0 * percentile(scaled, TAIL_PERCENTILE),
                             "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
        "detail": {
            "passes": index,
            "timed_s": timed,
            "tail_percentile": TAIL_PERCENTILE,
            "tail_samples_beyond": beyond,
            "failed_frac": failed / attempted,
            "failures": failures,
            "task_median_ms": {name: round(1000.0 * float(np.median(dts)), 3)
                               for name, dts in per_task.items()},
            "calibration_ms": 1000.0 * float(np.median(calibrations)),
            "measured": {
                "verified_per_s": verified / timed,
                "task_p50_ms": 1000.0 * percentile(raw, 50.0),
                "task_tail_ms": 1000.0 * percentile(raw, TAIL_PERCENTILE),
            },
        },
    }


def trace(workload, seed: int, setup_s: float) -> dict:
    import tracing

    tracer = tracing.Tracer()
    samples = []
    plain_s = traced_s = 0.0
    passes = []
    for index in range(workload.traced_passes):
        start = time.perf_counter()
        samples.extend(run_pass(workload, index))
        plain_s += time.perf_counter() - start
        tracer.install()
        try:
            start = time.perf_counter()
            samples.extend(run_pass(workload, index, tracer))
            traced_s += time.perf_counter() - start
        finally:
            tracer.uninstall()
        passes.append(tracer.take_pass())
    verified, failures, only_defects = check_samples(samples)
    span_file = ROOT / OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv.gz"
    tracer.write(span_file)
    metrics = layer_metrics(passes)
    metrics["trace.overhead_frac"] = {"value": traced_s / plain_s - 1.0, "unit": "ratio"}
    self_s: dict[str, float] = {}
    for counters in passes:
        for name, stat in counters.items():
            self_s[name] = self_s.get(name, 0.0) + stat.get("self_s", 0.0)
    shares = {name: round(s / traced_s, 4)
              for name, s in sorted(self_s.items(), key=lambda kv: -kv[1])}
    return {
        "correct": only_defects,
        "attempted": len(samples),
        "failed": len(samples) - verified,
        "metrics": metrics,
        "detail": {"passes": workload.traced_passes, "spans": len(tracer.spans),
                   "self_share_of_traced_wall": shares,
                   "span_file": str(span_file.relative_to(ROOT)), "failures": failures,
                   "setup_s": setup_s},
    }


LAYER_STATS = {
    "simplex.solve_lp": ("calls", "self_s", "pivots", "rows", "errors"),
    "approx.e_k": ("calls", "self_s", "unique_ratio"),
    "approx.best_minimax_poly": ("self_s",),
    "differences.osc_k": ("calls", "self_s", "unique_ratio"),
    "variation.max_weight_packing": ("calls", "self_s", "table_entries", "items"),
    "variation.variation_bruteforce": ("self_s",),
    "variation.variation_dyadic": ("self_s",),
    "variation.variation_local_search": ("self_s",),
    "variation.ac_modulus": ("self_s",),
    "variation.holder_seminorm": ("self_s",),
    "classical.vitali_variation": ("self_s",),
    "classical.hardy_krause_variation": ("self_s",),
    "grid.is_packing": ("calls", "self_s", "pairs"),
    "grid.cube_cell_mask": ("calls", "self_s"),
    "grid.enumerate_cubes": ("calls", "self_s"),
    "whitney.whitney_certificate": ("self_s",),
    "atoms.u_norm_bounds": ("self_s",),
    **{f"suite.invariant.{inv}": ("self_s",) for inv in workloads.SUITE_INVARIANTS},
    "cli.main": ("calls", "self_s"),
    "grid_io.load_grid": ("self_s",),
}

UNITS = {"self_s": "s", "unique_ratio": "ratio"}


def layer_metrics(passes: list[dict]) -> dict:
    """Per-pass means over the traced passes (counts repeat exactly)."""
    out = {}
    for layer, stats in LAYER_STATS.items():
        for stat in stats:
            values = []
            for counters in passes:
                got = counters.get(layer, {})
                if stat == "unique_ratio":
                    calls = got.get("calls", 0.0)
                    values.append(got.get("unique", 0.0) / calls if calls else 1.0)
                else:
                    values.append(got.get(stat, 0.0))
            out[f"{layer}.{stat}"] = {"value": sum(values) / len(values),
                                      "unit": UNITS.get(stat, "count")}
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    args = parser.parse_args()

    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=ROOT / OUT_DIR))
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        workload.warmup()
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            report = {"setup_s": setup_s}
        elif args.mode == "measure":
            report = measure(workload, args.seconds, setup_s)
        else:
            report = trace(workload, args.seed, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
