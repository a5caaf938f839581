"""Run one workload on several seeds; print each metric's median and spread.

    python3 perfbench/spread.py --workload store-rerun --seeds 1-10 --seconds 35

Each run is a fresh ``run.py`` process, one after another.  A metric's
spread is the distance between the first and third quartiles of its values
over the runs (``statistics.quantiles(values, n=4)``) as a share of their
median: the steadiness figure the bounds in ``BENCHMARK.json`` are set
against.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    """``"1-5"`` or ``"1,4,9"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values) -> float:
    """Inter-quartile distance over the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    runs = []
    for seed in args.seeds:
        command = [
            sys.executable,
            str(RUN),
            "--workload",
            args.workload,
            "--seed",
            str(seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        child = subprocess.run(
            command, cwd=RUN.parent.parent, capture_output=True, text=True, check=False
        )
        if child.returncode != 0:
            sys.stderr.write(child.stdout + child.stderr)
            return 1
        result = json.loads(child.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = " ".join(
            f"{name}={metric['value']:.5g}"
            for name, metric in result["metrics"].items()
        )
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        middle = statistics.median(values)
        share = spread(values) if len(values) > 1 and middle else float("nan")
        print(f"{name:34s} median {middle:12.6g}  spread {share:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
