#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric.

    python3 perfbench/repeat.py --workload post_knee --seeds 1 2 3 4 5

Prints, per metric, every value, the median and the quartile spread
(``statistics.quantiles(values, n=4)``: third minus first quartile, as a
share of the median), which is how run-to-run steadiness is judged
against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or doc["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    for name, series in values.items():
        line = f"{name}: median {statistics.median(series):.6g}"
        if len(series) >= 2 and statistics.median(series):
            line += f" spread {quartile_spread(series):.4f}"
        if name in bounds:
            line += f" (bound {bounds[name]})"
        print(line + f" values {[round(v, 6) for v in series]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
