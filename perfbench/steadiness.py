#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload and seed this runs the command in BENCHMARK.json
(from the repository root), collects the result line, and prints per
metric the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median
next to the metric's bound. Runs are sequential, so they do not compete
for cores.

    python3 perfbench/steadiness.py --seeds 10 --out steadiness.json
    python3 perfbench/steadiness.py --workloads tpcc --seeds 5 --trace 1

--ledger records the summaries in perfbench/ledger.json: end-to-end runs
under "baseline", traced runs (per-layer metrics, tracing overhead)
under "traced_baseline".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    # Build into .bench_build unless CARGO_TARGET_DIR says otherwise.
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    started = time.monotonic()
    p = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="write raw values and summaries here")
    ap.add_argument("--ledger", action="store_true",
                    help="record the summaries in perfbench/ledger.json")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {}
    for w in args.workloads:
        runs, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            metrics, wall = run_once(bench["command"], w, seed, args.seconds, args.trace)
            runs.append(metrics)
            walls.append(wall)
            print(f"{w} seed {seed}: {wall:.1f}s", file=sys.stderr)
        summary = {}
        print(f"\n{w}: {len(runs)} runs, wall median {statistics.median(walls):.1f}s")
        print(f"  {'metric':38} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in runs[0]:
            s = summarize([r[name] for r in runs])
            summary[name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
                flag = "  > bound/3"
            b = f"{bound:6.2f}" if bound is not None else "      "
            print(f"  {name:38} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
                  f"{s['spread']:8.4f} {b}{flag}")
        report[w] = {"runs": runs, "walls": walls, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    if args.ledger:
        path = ROOT / "perfbench" / "ledger.json"
        ledger = json.loads(path.read_text())
        key = "traced_baseline" if args.trace else "baseline"
        section = ledger.setdefault(key, {})
        for w, r in report.items():
            section[w] = {
                "seeds": f"{args.first_seed}..{args.first_seed + args.seeds - 1}",
                "run_seconds": args.seconds,
                "metrics": {k: {q: round(v, 6) for q, v in s.items()}
                            for k, s in r["summary"].items()},
            }
        path.write_text(json.dumps(ledger, indent=1) + "\n")


if __name__ == "__main__":
    main()
