#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed on each workload and
prints, per metric, the median and the spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median, next to the metric's bound. Run from the repository root:

    python3 e2ebench/spread.py                      # all workloads, seeds 1..10
    python3 e2ebench/spread.py --workloads infer-tgat-gdelt --seeds 1,2,3,4,5

It also runs one traced run per workload and checks that every result
names exactly the metrics, with the units, that BENCHMARK.json lists.
Exits 1 when a run is incorrect, a metric set differs, or a spread
(other than setup_s) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def same_metrics(result, listed):
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print(f"  metric set differs from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
        return False
    return True


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            result = run(bench["command"], workload, seed, args.seconds, 0)
            ok &= result["correct"] and result["failed"] == 0
            ok &= same_metrics(result, bench["end_to_end"])
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
            values_line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values_line}",
                  flush=True)
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            s = spread(vals) if len(vals) > 1 else 0.0
            flag = "ok"
            if s > m["bound"] and m["name"] != "setup_s":
                flag, ok = "OVER BOUND", False
            elif s > m["bound"] / 3:
                flag = "over bound/3"
            print(f"  {m['name']:22s} median={statistics.median(vals):<14.6g} "
                  f"spread={s:.4f} bound={m['bound']}  {flag}")
        traced = run(bench["command"], workload, seeds[0], args.seconds, 1)
        ok &= traced["correct"] and traced["failed"] == 0
        ok &= same_metrics(traced, bench["per_layer"])
        print(f"  traced run: correct={traced['correct']} "
              f"coverage={traced['metrics']['obs.ledger_coverage']['value']:.4f}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
