"""advface benchmark: one command, three workloads, checked outputs.

    python3 benchmarks/run.py --workload train-detect --seed 1 --seconds 10 --trace 0

Run from the repository root. `--trace 0` measures the end-to-end metrics
with no instrumentation; `--trace 1` is a separate run that wraps the
package's public functions and reports per-layer metrics. `--workload all`
runs every workload in its own process. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the line
before it is the full report, also written under `.bench_out/`. The exit
code is 1 when any output check fails, 2 when the package cannot be found.
See benchmarks/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOAD_NAMES = ("train-detect", "defend-eval", "single-image")
# One BLAS thread: on a shared 2-vCPU machine two threads ran slower and
# spread wider than one (train-detect, 3 alternating pairs).
BLAS_THREADS = "1"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("bench", "smoke"), default="bench",
                   help="input sizes; smoke is the smallest, for the schema test")
    p.add_argument("--record", action="store_true",
                   help="re-record the reference outputs of every input family instead "
                        "of measuring; only when outputs are meant to change")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        if args.record:
            worst = max(worst, subprocess.run(cmd + ["--record"]).returncode)
            continue
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = v
        worst = max(worst, proc.returncode)
    if not args.record:
        print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "advface" / "__init__.py").is_file():
        print(f"error: no advface package under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # pin BLAS threads for this process only, before NumPy loads BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    t0 = time.perf_counter()
    import harness  # NumPy, advface and the workloads
    return harness.main(args, ROOT, time.perf_counter() - t0, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
