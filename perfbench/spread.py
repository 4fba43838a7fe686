"""Run the benchmark once per seed and report each end-to-end metric's
median, quartiles and spread (quartile distance over the median).

    python3 perfbench/spread.py --workload recognize-scan --seeds 1-10

Run from the repository root.  Each run's JSON line is kept under
perfbench/out/runs/; the failed share of every run is printed as well,
since it must not depend on the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    out_dir = os.path.join(HERE, "out", "runs")
    os.makedirs(out_dir, exist_ok=True)
    results = []
    for seed in seeds_of(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True, check=True)
        line = done.stdout.strip().splitlines()[-1]
        with open(os.path.join(out_dir, f"{args.workload}-{seed}.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(line + "\n")
        result = json.loads(line)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["metrics"].items()), flush=True)
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        print(f"{name}: median {q2:.4g}  quartiles {q1:.4g} .. {q3:.4g}  "
              f"spread {(q3 - q1) / q2:.3f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
