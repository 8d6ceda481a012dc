#!/usr/bin/env python3
"""Benchmark entry point: build, run one workload, check, report.

    python3 perfbench/run.py --workload corpus_compile --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout. Builds perfbench/ (the memoria
library and CLI from ../src plus the in-process driver) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1
the per-layer metrics (BENCHMARK.json lists both). Exits nonzero when
any output check fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the sources

import serve_mixed  # noqa: E402

WORKLOADS = ("corpus_compile", "kernel_simulate", "serve_mixed")
# The end-to-end metrics BENCHMARK.json gates on. latency_p99_ms is
# measured too but only reported: on serve_mixed it does not repeat
# within a tenth from run to run (README.md, "End-to-end metrics").
END_TO_END = ("ops_per_s", "latency_p50_ms", "peak_rss_mb",
              "nests_memory_order_pct", "sim_speedup_geomean")
# Extra launch-to-ready timings of the in-process driver, before and
# after the measured run, so the median spans the run.
SETUP_BEFORE = 8
SETUP_AFTER = 8
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then let the build tool bring it up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"memoria sources not found under {ROOT / 'src'}")
        sys.exit(2)
    out = build_root() / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", *gen, "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "perfbench_inproc", out / "memoria" / "tools" / "memoria"


def source_digest():
    """Digest of every source the benchmark builds, so recorded work
    counters are only compared between runs of the same code."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def time_setup(base):
    """One launch of the in-process driver until it is ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(base + ["--setup-only"], stdout=subprocess.PIPE,
                            text=True)
    proc.stdout.readline()
    took = time.perf_counter() - t0
    proc.communicate(timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up exited {proc.returncode}")
    return took


def run_inproc(inproc, workload, seed, seconds, trace, spans):
    base = [str(inproc), "--workload", workload, "--seed", str(seed)]
    setup = [time_setup(base) for _ in range(SETUP_BEFORE)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        base + ["--seconds", str(seconds), "--trace", str(int(trace)),
                "--spans", str(spans)],
        stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup.append(time.perf_counter() - t0)
        rest, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not ready.startswith("ready"):
        raise RuntimeError(f"{workload} driver exited {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    setup += [time_setup(base) for _ in range(SETUP_AFTER)]
    result["setup_times"] = setup
    return result


def guard_determinism(workload, seed, counters):
    """Record this seed's exact work counters; a differing earlier
    record of the same code is a failure."""
    path = (build_root() / "determinism" /
            f"{workload}-seed{seed}-{source_digest()}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_file():
        before = json.loads(path.read_text())
        if before != counters:
            diff = sorted(k for k in set(before) | set(counters)
                          if before.get(k) != counters.get(k))
            return [f"work counters differ from an earlier run of seed "
                    f"{seed}: {', '.join(diff)}"]
        return []
    path.write_text(json.dumps(counters, sort_keys=True))
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    inproc, memoria = build()
    traces = build_root() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans = traces / f"{args.workload}-seed{args.seed}.jsonl"

    if args.workload == "serve_mixed":
        result = serve_mixed.run(str(inproc), str(memoria), args.seed,
                                 args.seconds, bool(args.trace),
                                 str(build_root() / "serve_run"), spans)
    else:
        result = run_inproc(inproc, args.workload, args.seed, args.seconds,
                            bool(args.trace), spans)

    checks = result["checks"]
    problems = guard_determinism(args.workload, args.seed,
                                 result["counters"])
    attempted = checks["attempted"] + 1
    failed = checks["failed"] + (1 if problems else 0)
    for msg in checks["messages"] + problems:
        log(f"check failed: {msg}")

    measured = result.pop("end_to_end")
    measured["setup_s"] = {"value": statistics.median(result["setup_times"]),
                           "unit": "s"}
    if args.trace:
        # A workload reports the layers it runs; the rest read 0.
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: result["per_layer"].get(
                       m["name"], {"value": 0.0, "unit": m["unit"]})
                   for m in bench["per_layer"]}
    else:
        metrics = {k: measured[k] for k in ("setup_s",) + END_TO_END}
    report = {k: v for k, v in result.items()
              if k not in ("per_layer", "checks")}
    report["measured"] = {k: v["value"] for k, v in measured.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
