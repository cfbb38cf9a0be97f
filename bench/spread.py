"""Run the benchmark on every workload over several seeds and summarise each metric.

    python3 bench/spread.py [--seeds 1-10] [--out FILE]

Runs every workload of BENCHMARK.json with its run_seconds and --trace 0.
Prints each run's metric table (value, unit, sample count), then per
workload and metric the median, the quartiles from
statistics.quantiles(values, n=4) and the spread: the distance between
the quartiles as a share of the median.  A change claims a gain or "no
regression" by comparing such summaries of the parent and the change,
made with the same benchmark code.  --out writes the summaries, with
each run's result line, as JSON; the seed_code sections of
REFERENCE.json are such summaries.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def seed_list(text):
    seeds = []
    for piece in text.split(","):
        lo, _, hi = piece.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def run_workload(workload, seeds):
    runs, values = [], {}
    for seed in seeds:
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=os.path.dirname(HERE), capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}", flush=True)
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "wall_s": wall, **result})
        print(f"{workload} seed {seed} ({wall:.1f} s, correct={result['correct']}):", flush=True)
        print("\n".join(line for line in lines[:-1] if line.startswith("  ") and "inputs by" not in line), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return runs, {name: summarise(v) for name, v in values.items() if len(v) >= 2}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=[1], help="e.g. 1-10 or 1,4,9")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report, complete = {}, True
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs, summary = run_workload(workload, args.seeds)
        complete &= len(runs) == len(args.seeds)
        report[workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            print(f"{workload} {name:<52} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.2%}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
