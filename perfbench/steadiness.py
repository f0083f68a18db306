"""Steadiness report: run one workload k times and compare each spread to its bound.

    python3 perfbench/steadiness.py --workload paper --runs 10 --first-seed 100

Each run is a fresh ``run.py`` process with its own seed (``first-seed``,
``first-seed + 1``, ...) and the ``run_seconds`` of BENCHMARK.json.  Per
end-to-end metric it prints the median, Q1, Q3 (``statistics.quantiles``
with n=4) and (Q3 - Q1) / median next to the metric's bound, and flags a
spread above a third of the bound.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, timeout=900, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed} ({time.perf_counter() - started:.0f} s): correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':24s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in sorted(values):
        s = spread(values[name])
        bound = bounds.get(name, float("nan"))
        flag = "" if s["spread"] <= bound / 3 else ("  > bound/3" if s["spread"] <= bound else "  > BOUND")
        print(f"{name:24s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
              f"{s['spread']:8.4f} {bound:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
