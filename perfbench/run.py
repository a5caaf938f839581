"""Command-line entry of the end-to-end benchmark.

    python3 perfbench/run.py --workload cluster-padded --seed 1 --seconds 40 --trace 0

Runs one workload in this fresh process and prints, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.  ``--workload all``
runs every workload, each in a child process of its own, and ends with one
combined line.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Where runs keep their stores, temporary files and result records.
WORK_DIR = ROOT / ".perfbench_work"
WORKLOADS = ("cluster-padded", "store-rerun")
#: The repro modules every workload imports.  Their import time is the
#: ``import.repro_s`` layer metric and stays out of ``setup_s``.
REPRO_MODULES = ("repro.api", "repro.experiments.runner", "repro.service")
#: Thread-pool sizes pinned to 1 before NumPy loads: BLAS and OpenMP read
#: them once, when the library initialises.  The manifest reads the live
#: OpenBLAS count back, and a run fails unless it is 1.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro clustering pipeline."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in a child process of its own, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [
            sys.executable,
            str(pathlib.Path(__file__).resolve()),
            "--workload",
            workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        child = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, check=False
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        for line in lines:
            print(f"{workload}: {line}", flush=True)
        if child.returncode != 0 or not lines:
            message = f"perfbench: {workload} exited with {child.returncode}"
            print(message, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no sources at {ROOT / 'src' / 'repro'}; "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK_DIR / "tmp")
    # Replace this script's own directory on the path (its modules must not
    # shadow anything) with the sources and the benchmark package.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    began = time.perf_counter()
    for module in REPRO_MODULES:
        importlib.import_module(module)
    import_s = time.perf_counter() - began
    from perfbench import harness

    return harness.main(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        import_s,
        ROOT,
        WORK_DIR,
    )


if __name__ == "__main__":
    sys.exit(main())
