"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload desk_train --seeds 1-10 [--seconds 20] [--trace 0]

The spread is the distance between the first and third quartile of the
per-run values as a share of their median, which is how a metric's
run-to-run noise is compared against its bound in BENCHMARK.json. Runs
are sequential; each one is waited for before the next starts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import quartile_spread  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        line = f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}"
        print(line, " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                             if k in bounds and bounds[k] is not None), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, series in values.items():
        bound = bounds.get(name)
        spread = quartile_spread(series) if len(series) >= 2 and statistics.median(series) else float("nan")
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("within bound" if spread < bound else "TOO WIDE")
            flag = f"bound {bound}: {flag}"
        print(f"{name:40s} median {statistics.median(series):12.6g}  spread {spread:8.4f}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
