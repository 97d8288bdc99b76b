"""gridvar benchmark entry point.

    python3 bench/run.py --workload exact --seed 0 --seconds 20 --trace 0

Run from the root of a gridvar checkout; the library is imported from its
`src/`. Workloads: exact, minimax, large-grid, suite (see bench/README.md).
With --trace 0 the last stdout line reports the end-to-end metrics, with
--trace 1 the per-layer split. Every task's output is checked against an
independent reference; the run exits non-zero if it cannot run at all.

All work happens in child processes with BLAS pinned to one thread. The
set-up time is the median over SETUP_PROBES separate set-ups plus the
measuring process's own.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("exact", "minimax", "large-grid", "suite")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    env.pop("PYTHONPATH", None)
    return env


def run_worker(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "gridvar" / "__init__.py").is_file():
        print(f"error: no gridvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        if args.trace:
            report = run_worker("trace", args, deadline)
        else:
            setups = [run_worker("setup", args, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            report = run_worker("measure", args, deadline)
            setups.append(report["metrics"]["setup_s"]["value"])
            report["metrics"]["setup_s"]["value"] = statistics.median(setups)
            report["detail"]["setup_samples_s"] = setups
    except subprocess.TimeoutExpired:
        print("error: benchmark worker timed out", file=sys.stderr)
        return 1

    detail = report.pop("detail")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
