"""Run one workload once per seed and report each metric's spread.

    python3 rrbench/steady.py <workload> [--seeds 1-10] [--seconds S] [--trace 0]

--seconds defaults to BENCHMARK.json's run_seconds.

For every metric of the result line: the median over the runs, the
quartiles as statistics.quantiles(n=4) gives them, and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.
Every run's result line is echoed to stderr as it finishes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or str(bench["run_seconds"])
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            ["bash", os.path.join(ROOT, "rrbench", "run.sh"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        print(f"seed {seed} exit {out.returncode}: {last}", file=sys.stderr)
        if out.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{out.stdout}\n{out.stderr}")
        for name, m in json.loads(last)["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{args.workload}: {len(seeds(args.seeds))} seeds, {seconds} s each")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound {bound}  third {bound / 3:.3f}"
        print(f"  {name:36s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
              f"  spread {spread:.3f}{note}")


if __name__ == "__main__":
    main()
