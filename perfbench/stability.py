#!/usr/bin/env python3
"""Repeat workloads over several seeds and report how steady each metric is.

    python3 perfbench/stability.py --seeds 1-10
    python3 perfbench/stability.py --workloads kernel_simulate --seeds 1-5 \\
        --save a.json
    python3 perfbench/stability.py --seeds 11-20 --against a.json

Runs perfbench/run.py once per (workload, seed), sequentially, from the
checkout root, and prints for each metric its median, first and third
quartiles (statistics.quantiles, n=4), the quartile spread as a share of
the median, the largest relative deviation from the median, and the
metric's bound from BENCHMARK.json. A spread above a third of the bound
is flagged. With --against, each median is also compared with the same
metric's median in an earlier saved set; a move in the worse direction
by more than the bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    worst = max(abs(v - med) for v in values) / med if med else 0.0
    return med, q1, q3, spread, worst


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write the raw values to this file")
    ap.add_argument("--against", help="an earlier --save file")
    args = ap.parse_args()

    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    earlier = json.loads(Path(args.against).read_text()) \
        if args.against else {}
    raw = {}
    flagged = 0
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            out = run_once(workload, seed, args.seconds, args.trace)
            if not out["correct"]:
                flagged += 1
                print(f"{workload} seed {seed}: failed {out['failed']} of "
                      f"{out['attempted']} checks")
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        raw[workload] = values
        print(f"\n{workload} ({len(parse_seeds(args.seeds))} runs)")
        print(f"  {'metric':38} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'maxdev':>7} {'bound':>6}")
        for name, vals in values.items():
            med, q1, q3, spread, worst = summarize(vals)
            bound = defs.get(name, {}).get("bound")
            note = ""
            if bound is not None and spread > bound / 3:
                note, flagged = " SPREAD", flagged + 1
            before = earlier.get(workload, {}).get(name)
            if before and bound is not None:
                prev = statistics.median(before)
                worse = (med - prev) / prev if prev else 0.0
                if defs[name]["better"] == "higher":
                    worse = -worse
                note += f" vs-earlier {worse:+.3f}"
                if worse > bound:
                    note, flagged = note + " WORSE", flagged + 1
            print(f"  {name:38} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:7.3f} {worst:7.3f} "
                  f"{'' if bound is None else bound:>6}{note}")
    if args.save:
        Path(args.save).write_text(json.dumps(raw, indent=1))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
