/**
 * @file
 * The `memoria bench` microbenchmark harness.
 *
 * Times the pipeline's hot paths — parse, validate, Compound,
 * equivalence oracle, single-config simulation, the multi-config
 * sweep, reuse-distance analysis, and an end-to-end batch over the
 * suite corpus — with warmup and repetition, reporting median / p90 /
 * min / mean wall time per benchmark.
 *
 * Every benchmark also reports **deterministic work counters**
 * (simulated accesses, interpreter iterations, nests optimized,
 * programs processed). Wall times vary with the host, so CI treats
 * them as warnings only; the counters are machine-independent, so the
 * perf gate (scripts/bench_compare.py) hard-fails when they grow —
 * catching "the sweep silently re-runs the interpreter per config"
 * class regressions without a quiet lab machine.
 *
 * `toJson()` renders the stable BENCH.json schema consumed by the CI
 * gate and committed as BENCH_baseline.json; see docs/PERFORMANCE.md.
 */

#ifndef MEMORIA_PERF_BENCH_HH
#define MEMORIA_PERF_BENCH_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace memoria {
namespace perf {

/** Knobs for one harness run. */
struct BenchOptions
{
    /** Timed repetitions per benchmark (median over these). */
    int reps = 5;

    /** Untimed warmup repetitions per benchmark. */
    int warmup = 1;

    /** Run only benchmarks whose name contains this substring. */
    std::string filter;

    /** Publish `perf.<name>.median_ms` gauges into the obs registry. */
    bool publishGauges = true;
};

/** Wall-time summary over the timed repetitions, in milliseconds. */
struct BenchTimings
{
    double medianMs = 0.0;
    double p90Ms = 0.0;
    double minMs = 0.0;
    double meanMs = 0.0;
};

/** One benchmark's outcome. */
struct BenchResult
{
    std::string name;
    int reps = 0;
    int warmup = 0;
    BenchTimings wall;

    /** Deterministic work counters, stable across hosts and runs. */
    std::vector<std::pair<std::string, uint64_t>> counters;

    /**
     * Derived throughput: median wall time over the `accesses` counter
     * (median_ms * 1e6 / accesses), in nanoseconds per simulated
     * access. Zero when the benchmark reports no accesses; like wall
     * times it is host-dependent, so gates treat it as advisory.
     */
    double nsPerAccess = 0.0;
};

/** The whole suite's outcome, plus build identity. */
struct BenchReport
{
    /** Schema tag checked by scripts/bench_compare.py. */
    std::string schema = "memoria-bench-v1";

    std::string version;
    std::string gitHash;
    std::string buildType;
    bool sanitizers = false;

    int reps = 0;
    int warmup = 0;
    std::vector<BenchResult> results;

    /** The stable BENCH.json rendering (docs/PERFORMANCE.md). */
    std::string toJson() const;

    /** Human-readable table. */
    std::string toText() const;
};

/** Run the suite (optionally filtered) and collect the report. */
BenchReport runBenchSuite(const BenchOptions &opts = {});

} // namespace perf
} // namespace memoria

#endif // MEMORIA_PERF_BENCH_HH
