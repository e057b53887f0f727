"""Benchmark entry point.

    python3 perfbench/run.py --workload train-small --seed 0 --seconds 10 --trace 0

Runs from the root of a source checkout. The workload runs in a fresh worker
process whose environment pins the BLAS thread count and puts the checkout's
own `src` first on the import path; this script waits for it, passes its
output through and exits with the worker's code, or non-zero without a
result if the worker printed none. The last
line of standard output is the result JSON (`correct`, `attempted`, `failed`,
`metrics`). See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train-small", "ingest-infer")
# One BLAS thread: on the 2-core reference machine two threads were slower
# on train-small and far less steady from run to run.
BLAS_THREADS = 1
# Time a worker may take beyond --seconds: the build, the repeated set-ups
# and the checks.
WORKER_ALLOWANCE_S = 165
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "motionprim" / "__init__.py").is_file():
        print(f"no motionprim sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
        MKL_NUM_THREADS=str(threads),
        PYTHONHASHSEED="0",
    )
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--blas-threads", str(threads),
    ]
    timeout = WORKER_ALLOWANCE_S + args.seconds
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {timeout} s and was stopped", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        print(f"worker exited {proc.returncode} without a result", file=sys.stderr)
        return proc.returncode or 4
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, sort_keys=True), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
