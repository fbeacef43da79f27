#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Every run prints its failed/attempted ops and every end-to-end metric
with its unit; a run that fails a correctness check is reported.

Run from the repository root:

    python3 perfbench/spread.py --workloads plan_cold,cosim_die --seeds 1-10

For every end-to-end metric it prints the median, the quartiles (as
Python's statistics.quantiles(values, n=4) gives them) and the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json. Beside them it prints the same for the two
host calibrations each run reports (a CPU loop and a memory chase) and
for p50_ms divided by each: when p50_ms spreads but a quotient does
not, the spread comes from the host, not from the workload. Exit code 1
if any run failed or was incorrect, or if a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        return None, None
    lines = out.stdout.strip().splitlines()
    words = next(l.split() for l in lines if l.startswith("host calibration:"))
    return json.loads(lines[-1]), {"cpu": float(words[3]), "memory": float(words[6])}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            r, calibration = run(workload, seed, args.seconds, 0)
            if r is None or not r["correct"] or r["failed"]:
                print(f"{workload} seed {seed}: FAILED {r}")
                ok = False
                continue
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for host, ms in calibration.items():
                values.setdefault(f"host.{host}", []).append(ms)
                values.setdefault(f"p50/host.{host}", []).append(
                    r["metrics"]["p50_ms"]["value"] / ms)
            print(f"{workload} seed {seed}: failed {r['failed']}/{r['attempted']} " +
                  " ".join(f"{n}={m['value']:.4g} {m['unit']}" for n, m in r["metrics"].items()) +
                  " " + " ".join(f"host.{h}={ms:.4g} ms" for h, ms in calibration.items()),
                  flush=True)
        if len(values.get("p50_ms", [])) < 2:
            continue
        for metric in bench["end_to_end"]:
            q1, med, q3, share = spread(values[metric["name"]])
            within = share <= metric["bound"]
            ok = ok and within
            print(f"  {workload:10s} {metric['name']:16s} median {med:12.5g} "
                  f"q1 {q1:12.5g} q3 {q3:12.5g} spread {share:6.3f} "
                  f"bound {metric['bound']:.2f}{'' if within else '  EXCEEDED'}", flush=True)
        for name in ["host.cpu", "host.memory", "p50/host.cpu", "p50/host.memory"]:
            q1, med, q3, share = spread(values[name])
            print(f"  {workload:10s} {name:16s} median {med:12.5g} "
                  f"q1 {q1:12.5g} q3 {q3:12.5g} spread {share:6.3f}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
