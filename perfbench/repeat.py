#!/usr/bin/env python3
"""Runs each workload repeatedly and prints how steady its metrics are.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--workloads tatp-1m,tatp-wire] [--traced N]

For every end-to-end metric it prints the median over the runs, the first
and third quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and that spread against the metric's bound in
BENCHMARK.json ("ok" below a third of the bound, "wide" up to the bound,
"OVER" beyond it). Each run uses another seed. With --traced N it also
makes N traced runs per workload, prints the per-layer medians, and
reports the tracing overhead: the traced runs' median tps against the
untraced runs' median tps. Every run's JSON line is appended to
.bench_out/repeat.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    with open(os.path.join(ROOT, ".bench_out", "repeat.jsonl"), "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                            "exit": p.returncode, "wall_s": round(wall, 1),
                            "result": result}) + "\n")
    if p.returncode != 0 or result is None or not result["correct"]:
        print(f"  {workload} seed {seed}: FAILED (exit {p.returncode})")
        return None
    result["wall_s"] = wall
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--traced", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    for name in names:
        print(f"== {name}: {args.runs} runs of {seconds}s", flush=True)
        results = []
        for i in range(args.runs):
            r = run_once(name, args.first_seed + i, seconds, 0)
            if r:
                results.append(r)
        if len(results) < 2:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"  wall per run: {statistics.median(r['wall_s'] for r in results):.1f}s median")
        print(f"  failed share per run: {shares}")
        print(f"  {'metric':24} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3, sp = spread(vals)
            verdict = ("ok" if sp < m["bound"] / 3 else
                       "wide" if sp <= m["bound"] else "OVER")
            print(f"  {m['name']:24} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{sp:8.4f} {m['bound']:6.2f} {verdict}")
        if args.traced:
            traced = [r for r in (run_once(name, 1000 + i, seconds, 1)
                                  for i in range(args.traced)) if r]
            if not traced:
                continue
            print(f"  per-layer medians over {len(traced)} traced runs:")
            for m in bench["per_layer"]:
                vals = [r["metrics"][m["name"]]["value"] for r in traced]
                print(f"    {m['name']:34} {statistics.median(vals):14.6g} "
                      f"{m['unit']}")
            base = statistics.median(r["metrics"]["tps"]["value"] for r in results)
            tr = statistics.median(r["metrics"]["trace.tps"]["value"] for r in traced)
            print(f"  tracing overhead: {100 * (1 - tr / base):.2f}% of tps "
                  f"({tr:.6g} traced vs {base:.6g} untraced)")


if __name__ == "__main__":
    main()
