/**
 * @file
 * memoria — command-line driver.
 *
 * Runs the pipeline on the built-in kernels and corpus programs:
 *
 *   memoria list
 *   memoria print <program> [N]
 *   memoria analyze <program> [N]      LoopCost table + memory order
 *   memoria optimize <program> [N]     Compound + before/after source
 *   memoria simulate <program> [N]     hit rates + speedup on both caches
 *   memoria reuse <program> [N]        reuse-distance profile
 *   memoria trace <program> [N]        Compound decision provenance
 *   memoria fuzz [--seed N] [--count K] [--jobs N]
 *                                      differential pipeline fuzzing
 *   memoria batch [programs...]        resilient batch pipeline
 *   memoria serve [--port N] [--socket P]  long-running compile service
 *   memoria reduce <bundle|file>       re-minimize a failure offline
 *   memoria bench [--json]             pipeline microbenchmarks
 *   memoria version                    build identity
 *
 * `memoria batch` runs the whole pipeline over many programs with
 * per-program crash isolation, budgets, and the degradation ladder
 * (docs/ROBUSTNESS.md):
 *
 *   --all                  kernels + 35-program corpus + examples/*.mem
 *   --stdin                read program names / file paths from stdin
 *   --jobs N               worker threads (default: up to 4)
 *   --deadline-ms N        wall-clock budget per ladder attempt
 *   --max-iterations N     interpreter iteration budget per attempt
 *   --max-ir-nodes N       IR node budget per program version
 *   --json                 print the machine-readable batch report
 *   --fault SPEC           arm one fault site: site[:action[:N]][@prog]
 *   --fault-sweep          arm every site in turn; verify containment
 *   --list-faults          print the registered fault-site catalog
 *   --incidents            minimize contained failures into bundles
 *   --caches NAMES         cache geometries to sweep per survivor:
 *                          i860 (default), rs6000, or both — all fed
 *                          from one interpreter pass per program
 *
 * `memoria bench` times the pipeline's hot paths (parse, validate,
 * Compound, oracle, simulation, the multi-config sweep, an end-to-end
 * corpus batch) with warmup and repetition; see docs/PERFORMANCE.md:
 *
 *   --reps N               timed repetitions per benchmark (default 5)
 *   --warmup N             untimed warmup repetitions (default 1)
 *   --filter S             run benchmarks whose name contains S
 *   --json                 emit the stable BENCH.json schema
 *
 * `memoria serve` reads JSON-lines requests from stdin (or serves TCP /
 * Unix-socket clients with --port / --socket) and answers each with
 * exactly one JSON response; see docs/SERVING.md:
 *
 *   --jobs N --queue N     threads per shard, per-shard queue bound
 *   --deadline-ms N        default per-request budget
 *   --max-deadline-ms N    clamp on client-supplied deadlines
 *   --drain-deadline-ms N  grace for queued work during shutdown
 *   --port N               TCP (0 picks an ephemeral port)
 *   --host H               TCP bind address (default 127.0.0.1)
 *   --socket PATH          Unix-domain socket
 *   --allow-faults         honor per-request fault-injection hooks
 *   --no-incidents         don't write incident bundles
 *   --incidents-dir DIR    bundle root (default artifacts/incidents)
 *   --workers N            fork N shard-worker processes behind a
 *                          crash-respawn supervisor (0 = in-process)
 *   --journal PATH|none    write-ahead admission journal (default
 *                          artifacts/serve/journal.jsonl with --workers)
 *   --heartbeat-ms N       worker liveness probe cadence (default 500)
 *   --max-request-bytes N  reject longer request lines up front
 *   --cache-entries N      result-cache entry bound (default 512)
 *   --cache-bytes N        result-cache byte bound (default 32 MiB)
 *   --no-cache             disable the result cache entirely
 *   --cache-snapshot-dir DIR
 *                          durable cache snapshots (cache-shardK.snap
 *                          per shard; warm restarts load them back)
 *   --cache-snapshot-interval-ms N
 *                          periodic snapshot cadence (also written at
 *                          drain; 0 = drain-only)
 *
 * `memoria reduce` re-minimizes an incident bundle directory (using its
 * recorded failure signature and fault plan) or a bare .mem file (the
 * signature is whatever contained failure the pipeline exhibits),
 * with offline-sized budgets (--deadline-ms, --max-checks).
 *
 * `memoria fuzz` failures are minimized into incident bundles under
 * artifacts/incidents/ (each regenerable from its seed alone); disable
 * with --no-incidents.
 *
 * Global flags (accepted anywhere on the command line):
 *
 *   --trace=<file.jsonl>   write the structured event trace as JSON lines
 *   --trace                write a human-readable trace to stderr
 *   --stats                dump the stats registry as a table at exit
 *   --stats=json           dump the stats registry as JSON at exit
 *   -v / -q                raise / silence log verbosity
 *                          (also: MEMORIA_LOG_LEVEL=quiet|warn|info|debug)
 *   --help                 print usage and exit 0
 *
 * Exit codes: 0 = success, 1 = pipeline failure (bad input program,
 * fuzzing or sweep found failures), 2 = usage error. A `batch` run that
 * *contains* per-program failures still exits 0 — containment is the
 * command's contract; parse the JSON report for per-program status.
 *
 * <program> is a kernel name (matmul-ijk, matmul-jki, cholesky, adi,
 * erlebacher, gmtry, simple, vpenta, jacobi), a corpus program name
 * (adm, arc2d, ..., wave), or a path to a source file written in the
 * loop-nest language (see src/frontend/parser.hh and examples/stencil.mem).
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fstream>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cachesim/reuse.hh"
#include "driver/fuzzcheck.hh"
#include "perf/bench.hh"
#include "frontend/parser.hh"
#include "harness/batch.hh"
#include "harness/fault.hh"
#include "harness/incident.hh"
#include "serve/listener.hh"
#include "serve/supervisor.hh"
#include "serve/top.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/signals.hh"
#include "support/stats.hh"
#include "support/trace.hh"
#include "support/version.hh"
#include "driver/memoria.hh"
#include "ir/printer.hh"
#include "model/loopcost.hh"
#include "suite/corpus.hh"
#include "suite/kernels.hh"
#include "support/table.hh"

namespace memoria {
namespace {

using Maker = std::function<Program(int64_t)>;

const std::map<std::string, Maker> &
kernels()
{
    static const std::map<std::string, Maker> table = {
        {"matmul-ijk", [](int64_t n) { return makeMatmul("IJK", n); }},
        {"matmul-ikj", [](int64_t n) { return makeMatmul("IKJ", n); }},
        {"matmul-jki", [](int64_t n) { return makeMatmul("JKI", n); }},
        {"cholesky", [](int64_t n) { return makeCholeskyKIJ(n); }},
        {"adi", [](int64_t n) { return makeAdiScalarized(n); }},
        {"erlebacher",
         [](int64_t n) { return makeErlebacherDistributed(n); }},
        {"gmtry", [](int64_t n) { return makeGmtry(n); }},
        {"simple", [](int64_t n) { return makeSimpleHydro(n); }},
        {"vpenta", [](int64_t n) { return makeVpenta(n); }},
        {"jacobi", [](int64_t n) { return makeJacobiBadOrder(n); }},
    };
    return table;
}

/** Corpus programs need extent >= 8 to exercise their nests; smaller
 *  requests are clamped, with a warning so the surprise is visible. */
int64_t
clampCorpusExtent(const std::string &name, int64_t n)
{
    if (n < 8) {
        warn("corpus program '" + name + "': requested size " +
             std::to_string(n) + " clamped to 8");
        return 8;
    }
    return n;
}

/**
 * Resolve a program by name: kernel, corpus program, or source file.
 * Failures come back as a Diag — the CLI reports them and exits 1
 * instead of aborting mid-pipeline.
 */
Result<Program>
resolve(const std::string &name, int64_t n)
{
    auto it = kernels().find(name);
    if (it != kernels().end())
        return Result<Program>(it->second(n));
    for (const auto &spec : corpusSpecs())
        if (spec.name == name)
            return Result<Program>(
                buildCorpusProgram(spec, clampCorpusExtent(name, n)));

    // Otherwise treat the name as a source file in the loop-nest
    // language (see src/frontend/parser.hh).
    std::ifstream in(name);
    if (in) {
        std::ostringstream buf;
        buf << in.rdbuf();
        ParseError err;
        auto p = parseProgram(buf.str(), &err);
        if (!p)
            return Result<Program>::err(Diag::error(
                "parse.error", name + ": " + err.str()));
        return Result<Program>(std::move(*p));
    }
    return Result<Program>::err(
        Diag::error("cli.unknown_program",
                    "unknown program or file '" + name +
                        "'; try `memoria list`"));
}

/** Same resolution for one batch input; loading stays lazy so failures
 *  are contained inside the batch isolation boundary. */
harness::BatchInput
resolveBatchInput(const std::string &name)
{
    auto it = kernels().find(name);
    if (it != kernels().end())
        return {name, [make = it->second]() {
                    return Result<Program>(make(24));
                }};
    for (const auto &spec : corpusSpecs())
        if (spec.name == name)
            return {name, [spec]() {
                        return Result<Program>(
                            buildCorpusProgram(spec, 16));
                    }};
    return harness::fileInput(name);
}

int
cmdList()
{
    std::cout << "kernels:\n";
    for (const auto &[name, mk] : kernels())
        std::cout << "  " << name << "\n";
    std::cout << "corpus programs:\n ";
    for (const auto &spec : corpusSpecs())
        std::cout << " " << spec.name;
    std::cout << "\n";
    return 0;
}

int
cmdAnalyze(Program prog)
{
    ModelParams params;
    std::cout << printProgram(prog) << "\n";
    int nest = 0;
    for (auto &top : prog.body) {
        if (!top->isLoop() || loopDepth(*top) < 2)
            continue;
        NestAnalysis na(prog, top.get(), params);
        std::cout << "nest " << nest++ << ": LoopCost per candidate\n";
        for (Node *l : na.loops()) {
            std::cout << "  " << prog.varName(l->var) << ": "
                      << na.loopCost(l).str() << "\n";
        }
        std::cout << "  memory order: ";
        for (Node *l : na.memoryOrder())
            std::cout << prog.varName(l->var);
        std::cout << (nestInMemoryOrder(na) ? " (already)" : "")
                  << "\n";
    }
    return 0;
}

int
cmdOptimize(Program prog)
{
    ModelParams params;
    OptimizedProgram opt = optimizeProgram(prog, params);
    std::cout << "--- original ---\n" << printProgram(opt.original)
              << "\n--- transformed ---\n"
              << printProgram(opt.transformed);
    std::cout << "nests: " << opt.report.nests
              << "  in memory order: " << opt.report.nestsOrig << "+"
              << opt.report.nestsPerm << "  failed: "
              << opt.report.nestsFail
              << "  fused: " << opt.report.fusion.fused
              << "  distributed: " << opt.report.distributions << "\n";
    std::cout << "semantics preserved: "
              << (runChecksum(opt.original) ==
                          runChecksum(opt.transformed)
                      ? "yes"
                      : "NO")
              << "\n";
    return 0;
}

int
cmdSimulate(Program prog)
{
    ModelParams params;
    OptimizedProgram opt = optimizeProgram(prog, params);
    TextTable t({"cache", "whole orig hit%", "whole final hit%",
                 "speedup"});
    for (const CacheConfig &cfg :
         {CacheConfig::rs6000(), CacheConfig::i860()}) {
        HitRates r = simulateHitRates(opt, cfg);
        Performance perf = simulatePerformance(opt, cfg);
        t.addRow({cfg.name, TextTable::num(r.wholeOrig, 2),
                  TextTable::num(r.wholeFinal, 2),
                  TextTable::num(perf.speedup(), 2)});
    }
    std::cout << t.str();
    return 0;
}

int
cmdReuse(Program prog)
{
    ModelParams params;
    OptimizedProgram opt = optimizeProgram(prog, params);
    auto profile = [](Program &p) {
        ReuseDistanceAnalyzer rd(32);
        Interpreter interp(p);
        interp.run(&rd);
        return rd;
    };
    ReuseDistanceAnalyzer r0 = profile(opt.original);
    ReuseDistanceAnalyzer r1 = profile(opt.transformed);
    std::cout << "mean reuse distance: "
              << TextTable::num(r0.meanDistance(), 1) << " -> "
              << TextTable::num(r1.meanDistance(), 1) << " lines\n";
    TextTable t({"capacity (lines)", "orig miss%", "final miss%"});
    for (uint64_t cap : {16, 64, 256, 1024}) {
        t.addRow({std::to_string(cap),
                  TextTable::num(100.0 * r0.missRatio(cap), 1),
                  TextTable::num(100.0 * r1.missRatio(cap), 1)});
    }
    std::cout << t.str();
    return 0;
}

/** Decision provenance: one row per nest with Compound's choice. */
int
cmdTrace(Program prog)
{
    ModelParams params;
    OptimizedProgram opt = optimizeProgram(prog, params);

    TextTable t({"nest", "depth", "strategy", "verify", "fail",
                 "orig cost", "final cost", "ideal cost"});
    int nest = 0;
    for (const NestReport &rep : opt.compound.nests) {
        t.addRow({std::to_string(nest++), std::to_string(rep.depth),
                  nestStrategyName(rep),
                  rep.rolledBack ? "ROLLED-BACK" : "ok",
                  permuteFailName(rep.fail), rep.origCost.str(),
                  rep.finalCost.str(), rep.idealCost.str()});
    }
    std::cout << t.str();
    std::cout << "nests: " << opt.report.nests
              << "  already in memory order: " << opt.report.nestsOrig
              << "  transformed into memory order: "
              << opt.report.nestsPerm
              << "  failed: " << opt.report.nestsFail << "\n";
    std::cout << "verify failures (rolled back): "
              << opt.report.failVerify << "\n";

    // Confirm the decisions in the cache simulator; this also fills the
    // cachesim.* stats counters so --stats reconciles with the table.
    HitRates rates = simulateHitRates(opt, CacheConfig::i860());
    std::cout << "whole-program hit% (warm, i860): "
              << TextTable::num(rates.wholeOrig, 2) << " -> "
              << TextTable::num(rates.wholeFinal, 2) << "\n";
    return 0;
}


/** Global flags pulled out of argv before command dispatch. */
struct Options
{
    std::vector<std::string> positional;
    std::string error;         ///< usage error; non-empty = exit 2
    bool help = false;         ///< --help
    bool version = false;      ///< --version
    std::string traceFile;     ///< --trace=<file.jsonl>
    bool traceText = false;    ///< bare --trace
    bool statsText = false;    ///< --stats
    bool statsJson = false;    ///< --stats=json
    int verbosity = 0;         ///< -v count minus -q count
    bool quiet = false;
    uint64_t fuzzSeed = 1;     ///< fuzz: --seed
    int fuzzCount = 100;       ///< fuzz: --count

    // batch
    bool batchAll = false;        ///< --all
    bool batchStdin = false;      ///< --stdin
    int jobs = 0;                 ///< --jobs (0 = auto)
    int64_t deadlineMs = 0;       ///< --deadline-ms
    int64_t maxIterations = 0;    ///< --max-iterations
    int64_t maxIrNodes = 0;       ///< --max-ir-nodes
    bool jsonOut = false;         ///< --json
    std::string faultSpec;        ///< --fault SPEC
    bool faultSweep = false;      ///< --fault-sweep
    bool listFaults = false;      ///< --list-faults
    std::string caches;           ///< --caches i860|rs6000|both

    // bench
    int benchReps = 5;            ///< --reps
    int benchWarmup = 1;          ///< --warmup
    std::string benchFilter;      ///< --filter

    // incidents (batch/fuzz/serve/reduce)
    bool incidents = false;       ///< batch: --incidents
    bool noIncidents = false;     ///< fuzz/serve: --no-incidents
    std::string incidentsDir;     ///< --incidents-dir DIR
    int maxChecks = 0;            ///< reduce: --max-checks

    // serve
    int queueCapacity = 0;        ///< --queue
    int64_t clientCap = 0;        ///< --client-cap (0 = off)
    int64_t ageMs = 0;            ///< --age-ms CoDel target (0 = off)
    int64_t rssSoftMb = 0;        ///< --rss-soft-mb (0 = off)
    int64_t rssHardMb = 0;        ///< --rss-hard-mb (0 = off)
    int64_t maxDeadlineMs = 0;    ///< --max-deadline-ms
    int64_t drainDeadlineMs = 0;  ///< --drain-deadline-ms
    int64_t retryAfterMs = 0;     ///< --retry-after-ms
    int port = -1;                ///< --port (-1 off, 0 ephemeral)
    std::string host = "127.0.0.1";  ///< --host
    std::string socketPath;       ///< --socket PATH
    bool allowFaults = false;     ///< --allow-faults

    // serve metrics export
    int metricsPort = -1;         ///< --metrics-port (-1 off)
    int64_t metricsIntervalMs = 0;///< --metrics-interval-ms
    std::string metricsFile;      ///< --metrics-file PATH

    // serve supervision (multi-process shard workers)
    int workers = 0;              ///< --workers (0 = single-process)
    int64_t maxRequestsPerWorker = 0;  ///< --max-requests-per-worker
    std::string journalPath;      ///< --journal PATH|none
    int64_t heartbeatMs = 0;      ///< --heartbeat-ms
    int64_t maxRequestBytes = 0;  ///< --max-request-bytes
    int workerFd = -1;            ///< --worker-fd (internal)
    int shard = -1;               ///< --shard (internal)
    std::string argv0;            ///< how this binary was invoked

    // serve result cache
    int64_t cacheEntries = -1;    ///< --cache-entries (-1 = default)
    int64_t cacheBytes = 0;       ///< --cache-bytes (0 = default)
    bool noCache = false;         ///< --no-cache
    std::string cacheSnapshotDir; ///< --cache-snapshot-dir DIR
    int64_t cacheSnapshotIntervalMs = 0;  ///< --cache-snapshot-interval-ms

    // top
    std::string topFile;          ///< top: --file (tail snapshots)
    int64_t topIntervalMs = 1000; ///< top: --interval-ms
    bool topOnce = false;         ///< top: --once
};

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    if (argc > 0)
        opts.argv0 = argv[0];

    // Flags taking a value, as "--flag V" or "--flag=V".
    const std::map<std::string, std::function<void(const std::string &)>>
        valued = {
            {"--seed",
             [&](const std::string &v) {
                 opts.fuzzSeed =
                     static_cast<uint64_t>(std::atoll(v.c_str()));
             }},
            {"--count",
             [&](const std::string &v) {
                 opts.fuzzCount = std::atoi(v.c_str());
             }},
            {"--jobs",
             [&](const std::string &v) {
                 opts.jobs = std::atoi(v.c_str());
             }},
            {"--deadline-ms",
             [&](const std::string &v) {
                 opts.deadlineMs = std::atoll(v.c_str());
             }},
            {"--max-iterations",
             [&](const std::string &v) {
                 opts.maxIterations = std::atoll(v.c_str());
             }},
            {"--max-ir-nodes",
             [&](const std::string &v) {
                 opts.maxIrNodes = std::atoll(v.c_str());
             }},
            {"--fault",
             [&](const std::string &v) { opts.faultSpec = v; }},
            {"--caches",
             [&](const std::string &v) { opts.caches = v; }},
            {"--reps",
             [&](const std::string &v) {
                 opts.benchReps = std::atoi(v.c_str());
             }},
            {"--warmup",
             [&](const std::string &v) {
                 opts.benchWarmup = std::atoi(v.c_str());
             }},
            {"--filter",
             [&](const std::string &v) { opts.benchFilter = v; }},
            {"--incidents-dir",
             [&](const std::string &v) { opts.incidentsDir = v; }},
            {"--max-checks",
             [&](const std::string &v) {
                 opts.maxChecks = std::atoi(v.c_str());
             }},
            {"--queue",
             [&](const std::string &v) {
                 opts.queueCapacity = std::atoi(v.c_str());
             }},
            {"--client-cap",
             [&](const std::string &v) {
                 opts.clientCap = std::atoll(v.c_str());
             }},
            {"--age-ms",
             [&](const std::string &v) {
                 opts.ageMs = std::atoll(v.c_str());
             }},
            {"--rss-soft-mb",
             [&](const std::string &v) {
                 opts.rssSoftMb = std::atoll(v.c_str());
             }},
            {"--rss-hard-mb",
             [&](const std::string &v) {
                 opts.rssHardMb = std::atoll(v.c_str());
             }},
            {"--max-requests-per-worker",
             [&](const std::string &v) {
                 opts.maxRequestsPerWorker = std::atoll(v.c_str());
             }},
            {"--max-deadline-ms",
             [&](const std::string &v) {
                 opts.maxDeadlineMs = std::atoll(v.c_str());
             }},
            {"--drain-deadline-ms",
             [&](const std::string &v) {
                 opts.drainDeadlineMs = std::atoll(v.c_str());
             }},
            {"--retry-after-ms",
             [&](const std::string &v) {
                 opts.retryAfterMs = std::atoll(v.c_str());
             }},
            {"--port",
             [&](const std::string &v) {
                 opts.port = std::atoi(v.c_str());
             }},
            {"--host",
             [&](const std::string &v) { opts.host = v; }},
            {"--socket",
             [&](const std::string &v) { opts.socketPath = v; }},
            {"--metrics-port",
             [&](const std::string &v) {
                 opts.metricsPort = std::atoi(v.c_str());
             }},
            {"--metrics-interval-ms",
             [&](const std::string &v) {
                 opts.metricsIntervalMs = std::atoll(v.c_str());
             }},
            {"--metrics-file",
             [&](const std::string &v) { opts.metricsFile = v; }},
            {"--workers",
             [&](const std::string &v) {
                 opts.workers = std::atoi(v.c_str());
             }},
            {"--journal",
             [&](const std::string &v) { opts.journalPath = v; }},
            {"--heartbeat-ms",
             [&](const std::string &v) {
                 opts.heartbeatMs = std::atoll(v.c_str());
             }},
            {"--max-request-bytes",
             [&](const std::string &v) {
                 opts.maxRequestBytes = std::atoll(v.c_str());
             }},
            {"--cache-entries",
             [&](const std::string &v) {
                 opts.cacheEntries = std::atoll(v.c_str());
             }},
            {"--cache-bytes",
             [&](const std::string &v) {
                 opts.cacheBytes = std::atoll(v.c_str());
             }},
            {"--cache-snapshot-dir",
             [&](const std::string &v) {
                 opts.cacheSnapshotDir = v;
             }},
            {"--cache-snapshot-interval-ms",
             [&](const std::string &v) {
                 opts.cacheSnapshotIntervalMs = std::atoll(v.c_str());
             }},
            {"--worker-fd",
             [&](const std::string &v) {
                 opts.workerFd = std::atoi(v.c_str());
             }},
            {"--shard",
             [&](const std::string &v) {
                 opts.shard = std::atoi(v.c_str());
             }},
            {"--file",
             [&](const std::string &v) { opts.topFile = v; }},
            {"--interval-ms",
             [&](const std::string &v) {
                 opts.topIntervalMs = std::atoll(v.c_str());
             }},
        };

    for (int i = 1; i < argc && opts.error.empty(); ++i) {
        std::string arg = argv[i];
        auto eq = arg.find('=');
        std::string head =
            eq == std::string::npos ? arg : arg.substr(0, eq);
        auto valuedIt = valued.find(head);

        if (arg == "--help" || arg == "-h") {
            opts.help = true;
        } else if (arg == "--version") {
            opts.version = true;
        } else if (arg == "--incidents") {
            opts.incidents = true;
        } else if (arg == "--no-incidents") {
            opts.noIncidents = true;
        } else if (arg == "--allow-faults") {
            opts.allowFaults = true;
        } else if (arg == "--trace") {
            opts.traceText = true;
        } else if (head == "--trace") {
            opts.traceFile = arg.substr(8);
            if (opts.traceFile.empty())
                opts.error = "--trace= needs a file name";
        } else if (arg == "--stats") {
            opts.statsText = true;
        } else if (arg == "--stats=json") {
            opts.statsJson = true;
        } else if (arg == "--all") {
            opts.batchAll = true;
        } else if (arg == "--stdin") {
            opts.batchStdin = true;
        } else if (arg == "--json") {
            opts.jsonOut = true;
        } else if (arg == "--fault-sweep") {
            opts.faultSweep = true;
        } else if (arg == "--list-faults") {
            opts.listFaults = true;
        } else if (arg == "--once") {
            opts.topOnce = true;
        } else if (arg == "--no-cache") {
            opts.noCache = true;
        } else if (valuedIt != valued.end()) {
            if (eq != std::string::npos) {
                valuedIt->second(arg.substr(eq + 1));
            } else if (i + 1 < argc) {
                valuedIt->second(argv[++i]);
            } else {
                opts.error = arg + " needs a value";
            }
        } else if (arg == "-v") {
            ++opts.verbosity;
        } else if (arg == "-q") {
            opts.quiet = true;
        } else if (!arg.empty() && arg[0] == '-' && arg.size() > 1 &&
                   !isdigit(static_cast<unsigned char>(arg[1]))) {
            opts.error = "unknown flag '" + arg + "'";
        } else {
            opts.positional.push_back(std::move(arg));
        }
    }
    return opts;
}

void
applyVerbosity(const Options &opts)
{
    if (opts.quiet) {
        setLogLevel(LogLevel::Quiet);
        return;
    }
    int level = static_cast<int>(logLevel()) + opts.verbosity;
    level = std::min(level, static_cast<int>(LogLevel::Debug));
    setLogLevel(static_cast<LogLevel>(level));
}

const char *
usageText()
{
    return
        "usage: memoria "
        "<list|print|analyze|optimize|simulate|reuse|trace> "
        "[program] [N] [--trace[=file.jsonl]] [--stats[=json]] "
        "[-v] [-q]\n"
        "       memoria fuzz [--seed N] [--count K] [--jobs N] "
        "[--no-incidents]\n"
        "       memoria batch [programs...] [--all] [--stdin] "
        "[--jobs N]\n"
        "               [--deadline-ms N] [--max-iterations N] "
        "[--max-ir-nodes N]\n"
        "               [--json] [--fault SPEC] [--fault-sweep] "
        "[--list-faults]\n"
        "               [--incidents] [--incidents-dir DIR] "
        "[--caches i860|rs6000|both]\n"
        "       memoria serve [--jobs N] [--queue N] [--deadline-ms N]"
        " [--port N]\n"
        "               [--host H] [--socket PATH] [--allow-faults]"
        " [--no-incidents]\n"
        "               [--metrics-port N] [--metrics-file PATH] "
        "[--metrics-interval-ms N]\n"
        "               [--workers N] [--journal PATH|none] "
        "[--heartbeat-ms N]\n"
        "               [--max-request-bytes N] [--cache-entries N] "
        "[--cache-bytes N]\n"
        "               [--no-cache] [--cache-snapshot-dir DIR]\n"
        "               [--cache-snapshot-interval-ms N]\n"
        "               [--client-cap N] [--age-ms N] "
        "[--rss-soft-mb N] [--rss-hard-mb N]\n"
        "               [--max-requests-per-worker N]\n"
        "       memoria top [host:port] [--file SNAPSHOTS.jsonl] "
        "[--interval-ms N] [--once]\n"
        "       memoria reduce <bundle-dir|file.mem> [--deadline-ms N]"
        " [--max-checks N]\n"
        "       memoria bench [--reps N] [--warmup N] [--filter S] "
        "[--json]\n"
        "       memoria version | --version\n"
        "       memoria --help\n"
        "exit codes: 0 ok, 1 pipeline failure, 2 usage error\n";
}

/**
 * Parse --caches: "i860", "rs6000", "both", or a comma-separated list
 * of those names. Empty result means "unrecognized".
 */
std::vector<CacheConfig>
parseCacheConfigs(const std::string &spec)
{
    std::vector<CacheConfig> configs;
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item == "i860") {
            configs.push_back(CacheConfig::i860());
        } else if (item == "rs6000") {
            configs.push_back(CacheConfig::rs6000());
        } else if (item == "both") {
            configs.push_back(CacheConfig::rs6000());
            configs.push_back(CacheConfig::i860());
        } else {
            return {};
        }
    }
    return configs;
}

int
cmdBench(const Options &opts)
{
    if (opts.benchReps <= 0 || opts.benchWarmup < 0) {
        std::cerr << "memoria bench: --reps must be positive and "
                     "--warmup non-negative\n";
        return 2;
    }
    perf::BenchOptions bopts;
    bopts.reps = opts.benchReps;
    bopts.warmup = opts.benchWarmup;
    bopts.filter = opts.benchFilter;
    perf::BenchReport report = perf::runBenchSuite(bopts);
    if (report.results.empty()) {
        std::cerr << "memoria bench: no benchmark matches filter '"
                  << opts.benchFilter << "'\n";
        return 1;
    }
    if (opts.jsonOut)
        std::cout << report.toJson() << "\n";
    else
        std::cout << report.toText();
    return 0;
}

void
printBatchSummary(const harness::BatchReport &rep)
{
    TextTable t({"program", "status", "rung", "attempts", "time ms",
                 "hit% orig->final"});
    for (const harness::ProgramOutcome &p : rep.programs) {
        std::string hit = p.simulated
                              ? TextTable::num(p.hitWarmOrig, 1) +
                                    " -> " +
                                    TextTable::num(p.hitWarmFinal, 1)
                              : "-";
        t.addRow({p.name, harness::batchStatusName(p.status),
                  harness::rungName(p.rung), std::to_string(p.attempts),
                  TextTable::num(p.timeMs, 1), hit});
    }
    std::cout << t.str();
    std::cout << "batch: " << rep.programs.size() << " programs  ok: "
              << rep.countWithStatus(harness::BatchStatus::Ok)
              << "  degraded: "
              << rep.countWithStatus(harness::BatchStatus::Degraded)
              << "  diag: "
              << rep.countWithStatus(harness::BatchStatus::Diag)
              << "  timeout: "
              << rep.countWithStatus(harness::BatchStatus::Timeout)
              << "  panic-contained: "
              << rep.countWithStatus(
                     harness::BatchStatus::PanicContained)
              << "  (" << TextTable::num(rep.totalMs, 0) << " ms)\n";
}

/**
 * Arm every registered fault site in turn against the program that hits
 * it, rerun the batch, and verify the injected failure was contained to
 * exactly that program. Returns 0 when every armed site was contained.
 */
int
runFaultSweep(const std::vector<harness::BatchInput> &inputs,
              const harness::BatchOptions &bopts)
{
    harness::clearFault();
    harness::BatchReport clean = harness::runBatch(inputs, bopts);

    int armed = 0, skipped = 0, failed = 0;
    for (const std::string &site : harness::faultSites()) {
        // Pick the first program (stable input order) that actually
        // reaches this site, so arming it is guaranteed to fire.
        const harness::ProgramOutcome *target = nullptr;
        for (const harness::ProgramOutcome &p : clean.programs) {
            auto hit = p.faultHits.find(site);
            if (hit != p.faultHits.end() && hit->second > 0) {
                target = &p;
                break;
            }
        }
        if (!target) {
            ++skipped;
            std::cout << "sweep: " << site
                      << ": never reached by any input, skipped\n";
            continue;
        }

        harness::FaultSpec spec;
        spec.site = site;
        spec.action = harness::FaultAction::Throw;
        spec.onHit = 1;
        spec.program = target->name;
        harness::armFault(spec);
        harness::BatchReport rep = harness::runBatch(inputs, bopts);
        bool fired = harness::armedFaultFired();
        harness::clearFault();
        ++armed;

        std::string why;
        if (!fired)
            why = "armed fault never fired";
        for (size_t i = 0;
             why.empty() && i < rep.programs.size(); ++i) {
            const harness::ProgramOutcome &p = rep.programs[i];
            const harness::ProgramOutcome &base = clean.programs[i];
            if (p.name == target->name) {
                if (!p.contained())
                    why = "injected fault not contained (status " +
                          std::string(
                              harness::batchStatusName(p.status)) +
                          ")";
            } else if (p.status != base.status || p.rung != base.rung) {
                why = "bystander '" + p.name + "' changed: " +
                      harness::batchStatusName(base.status) + "/" +
                      harness::rungName(base.rung) + " -> " +
                      harness::batchStatusName(p.status) + "/" +
                      harness::rungName(p.rung);
            }
        }

        if (why.empty()) {
            std::cout << "sweep: " << spec.str() << ": contained\n";
        } else {
            ++failed;
            std::cout << "sweep: " << spec.str() << ": FAILED — "
                      << why << "\n";
        }
    }

    std::cout << "sweep: " << armed << " sites armed, " << skipped
              << " skipped, " << failed << " failures\n";
    return failed == 0 ? 0 : 1;
}

/** Differential fuzzing over the whole pipeline; see
 *  driver/fuzzcheck.hh for the per-round protocol. Failures are
 *  minimized into incident bundles unless --no-incidents. */
int
cmdFuzz(const Options &opts)
{
    uint64_t seed = opts.fuzzSeed;
    FuzzReport rep = runFuzzCampaign(seed, opts.fuzzCount, {},
                                     std::max(opts.jobs, 1));
    std::cout << "fuzz: " << rep.programs << " programs (seed " << seed
              << ")  validate failures: " << rep.validateFailures
              << "  round-trip failures: " << rep.roundTripFailures
              << "  equivalence failures: " << rep.equivFailures
              << "  guard rollbacks: " << rep.rollbacks << "\n";
    for (const std::string &msg : rep.messages)
        std::cout << "  " << msg << "\n";
    if (rep.ok()) {
        std::cout << "all checks passed\n";
        return 0;
    }

    if (!opts.noIncidents) {
        incident::IncidentPolicy policy;
        if (!opts.incidentsDir.empty())
            policy.dir = opts.incidentsDir;
        int written = 0;
        for (const FuzzReport::Failure &f : rep.failures) {
            if (written >= policy.maxIncidents)
                break;
            // Generation is pure in the seed, so this is the exact
            // failing program the campaign saw.
            Program prog = fuzzProgram(f.seed);
            incident::Incident inc;
            inc.name = "fuzz-" + std::to_string(f.seed);
            inc.kind = f.kind;
            inc.detail = f.detail;
            inc.source = printProgram(prog);
            inc.seed = f.seed;
            Result<std::string> bundle = incident::captureIncident(
                std::move(inc), prog, fuzzFailurePredicate(f.kind),
                policy);
            if (bundle.ok()) {
                std::cout << "  incident: " << bundle.value() << "\n";
                ++written;
            } else {
                warn("fuzz: " + bundle.diag().str());
            }
        }
    }

    std::cout << "FUZZING FOUND FAILURES\n";
    return 1;
}

int
cmdBatch(const Options &opts)
{
    if (opts.listFaults) {
        for (const std::string &site : harness::faultSites())
            std::cout << site
                      << (harness::faultSiteSupportsDiag(site)
                              ? " (diag)"
                              : "")
                      << "\n";
        return 0;
    }

    harness::BatchOptions bopts;
    bopts.budget.deadlineMs = std::max<int64_t>(opts.deadlineMs, 0);
    bopts.budget.maxInterpIterations =
        opts.maxIterations > 0
            ? static_cast<uint64_t>(opts.maxIterations)
            : 0;
    bopts.budget.maxIrNodes =
        opts.maxIrNodes > 0 ? static_cast<uint64_t>(opts.maxIrNodes)
                            : 0;
    bopts.jobs =
        opts.jobs > 0
            ? opts.jobs
            : std::clamp<int>(
                  static_cast<int>(std::thread::hardware_concurrency()),
                  1, 4);
    // Incident bundling re-runs failures against their original text.
    bopts.captureSource = opts.incidents;
    if (!opts.caches.empty()) {
        bopts.cacheConfigs = parseCacheConfigs(opts.caches);
        if (bopts.cacheConfigs.empty()) {
            std::cerr << "memoria batch: --caches wants i860, rs6000, "
                         "or both\n";
            return 2;
        }
    }

    std::vector<harness::BatchInput> inputs;
    if (opts.batchAll) {
        inputs = harness::kernelInputs();
        for (harness::BatchInput &in : harness::corpusInputs())
            inputs.push_back(std::move(in));
        for (harness::BatchInput &in :
             harness::directoryInputs("examples"))
            inputs.push_back(std::move(in));
    }
    if (opts.batchStdin) {
        std::string line;
        while (std::getline(std::cin, line)) {
            while (!line.empty() &&
                   isspace(static_cast<unsigned char>(line.back())))
                line.pop_back();
            if (!line.empty() && line[0] != '#')
                inputs.push_back(resolveBatchInput(line));
        }
    }
    for (size_t i = 1; i < opts.positional.size(); ++i)
        inputs.push_back(resolveBatchInput(opts.positional[i]));

    if (inputs.empty()) {
        std::cerr << "memoria batch: no inputs; use --all, --stdin, "
                     "or program names\n";
        return 2;
    }

    if (opts.faultSweep)
        return runFaultSweep(inputs, bopts);

    if (!opts.faultSpec.empty()) {
        Result<harness::FaultSpec> spec =
            harness::parseFaultSpec(opts.faultSpec);
        if (!spec.ok()) {
            std::cerr << "memoria batch: " << spec.diag().str() << "\n";
            return 2;
        }
        harness::armFault(spec.value());
    }

    harness::BatchReport rep = harness::runBatch(inputs, bopts);

    std::vector<std::string> bundles;
    if (opts.incidents) {
        incident::IncidentPolicy policy;
        if (!opts.incidentsDir.empty())
            policy.dir = opts.incidentsDir;
        // Runs before clearFault(): bundling re-arms the still-armed
        // plan around each reduction so fault-induced failures
        // reproduce.
        bundles = incident::processBatchIncidents(rep, bopts, policy);
    }
    harness::clearFault();

    if (opts.jsonOut)
        std::cout << rep.toJson() << "\n";
    else
        printBatchSummary(rep);
    for (const std::string &b : bundles)
        std::cout << "incident: " << b << "\n";

    // Containment is the contract: per-program failures are reported,
    // not escalated to the exit code.
    return 0;
}

/** `memoria serve`: block until EOF or a drain signal; exit 0 on a
 *  clean drain. */
int
cmdServe(const Options &opts)
{
    // Cooperative drain: SIGTERM/SIGINT set a flag the transport
    // loops poll; a second signal escalates to flush-and-exit.
    signals::installDrainHandler();

    serve::ServeOptions sopts;
    if (opts.jobs > 0)
        sopts.jobs = opts.jobs;
    if (opts.queueCapacity > 0)
        sopts.queueCapacity =
            static_cast<size_t>(opts.queueCapacity);
    if (opts.deadlineMs > 0)
        sopts.budget.deadlineMs = opts.deadlineMs;
    if (opts.maxIterations > 0)
        sopts.budget.maxInterpIterations =
            static_cast<uint64_t>(opts.maxIterations);
    if (opts.maxIrNodes > 0)
        sopts.budget.maxIrNodes =
            static_cast<uint64_t>(opts.maxIrNodes);
    if (opts.maxDeadlineMs > 0)
        sopts.maxDeadlineMs = opts.maxDeadlineMs;
    if (opts.drainDeadlineMs > 0)
        sopts.drainDeadlineMs = opts.drainDeadlineMs;
    if (opts.retryAfterMs > 0)
        sopts.retryAfterMs = opts.retryAfterMs;
    if (opts.clientCap > 0)
        sopts.perClientCap = static_cast<size_t>(opts.clientCap);
    if (opts.ageMs > 0)
        sopts.ageTargetMs = opts.ageMs;
    if (opts.rssSoftMb > 0)
        sopts.rssSoftBytes =
            static_cast<uint64_t>(opts.rssSoftMb) << 20;
    if (opts.rssHardMb > 0)
        sopts.rssHardBytes =
            static_cast<uint64_t>(opts.rssHardMb) << 20;
    sopts.allowFaultRequests = opts.allowFaults;
    sopts.writeIncidents = !opts.noIncidents;
    if (!opts.caches.empty()) {
        sopts.cacheConfigs = parseCacheConfigs(opts.caches);
        if (sopts.cacheConfigs.empty()) {
            std::cerr << "memoria serve: --caches wants i860, rs6000, "
                         "or both\n";
            return 2;
        }
    }
    if (!opts.incidentsDir.empty())
        sopts.incidents.dir = opts.incidentsDir;

    if (opts.maxRequestBytes > 0)
        sopts.maxRequestBytes =
            static_cast<size_t>(opts.maxRequestBytes);

    // Result cache: bounds, and the per-shard durable snapshot path
    // (shard -1 — plain single-process serve — uses shard 0's file).
    if (opts.noCache)
        sopts.resultCache.maxEntries = 0;
    else if (opts.cacheEntries >= 0)
        sopts.resultCache.maxEntries =
            static_cast<size_t>(opts.cacheEntries);
    if (opts.cacheBytes > 0)
        sopts.resultCache.maxBytes =
            static_cast<size_t>(opts.cacheBytes);
    sopts.shard = opts.shard;
    if (!opts.cacheSnapshotDir.empty()) {
        sopts.cacheSnapshotPath =
            opts.cacheSnapshotDir + "/cache-shard" +
            std::to_string(std::max(0, opts.shard)) + ".snap";
        if (opts.cacheSnapshotIntervalMs > 0)
            sopts.cacheSnapshotIntervalMs = opts.cacheSnapshotIntervalMs;
    }

    // Shard-worker mode (spawned by the supervisor, never by hand):
    // a bare executor running what the front forwards over the
    // inherited socketpair fd. Admission and metrics export stay with
    // the parent.
    if (opts.workerFd >= 0) {
        serve::Executor executor(sopts);
        return serve::runWorkerFd(executor, opts.workerFd);
    }

    sopts.metricsPath = opts.metricsFile;
    if (opts.metricsIntervalMs > 0)
        sopts.metricsIntervalMs = opts.metricsIntervalMs;

    serve::TransportOptions topts;
    const bool sockets = opts.port >= 0 || !opts.socketPath.empty();
    topts.stdio = !sockets;
    topts.host = opts.host;
    topts.port = opts.port;
    topts.unixPath = opts.socketPath;
    topts.metricsPort = opts.metricsPort;

    if (opts.workers > 0) {
        serve::SupervisorOptions supopts;
        supopts.workers = opts.workers;
        supopts.serve = sopts;
        if (opts.heartbeatMs > 0)
            supopts.heartbeatMs = opts.heartbeatMs;
        if (opts.maxRequestsPerWorker > 0)
            supopts.maxRequestsPerWorker =
                static_cast<uint64_t>(opts.maxRequestsPerWorker);
        if (opts.journalPath != "none") {
            supopts.journalPath =
                opts.journalPath.empty()
                    ? "artifacts/serve/journal.jsonl"
                    : opts.journalPath;
        }

        // Workers re-exec this binary; /proc/self/exe survives PATH
        // lookups and cwd changes, argv[0] is the fallback.
        std::string self = opts.argv0;
        char buf[4096];
        ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
        if (n > 0) {
            buf[n] = '\0';
            self = buf;
        }
        std::vector<std::string> cmd = {self, "serve"};
        auto flag = [&cmd](const std::string &name, int64_t v) {
            cmd.push_back(name);
            cmd.push_back(std::to_string(v));
        };
        if (opts.jobs > 0)
            flag("--jobs", opts.jobs);
        if (opts.deadlineMs > 0)
            flag("--deadline-ms", opts.deadlineMs);
        if (opts.maxIterations > 0)
            flag("--max-iterations", opts.maxIterations);
        if (opts.maxIrNodes > 0)
            flag("--max-ir-nodes", opts.maxIrNodes);
        if (opts.maxDeadlineMs > 0)
            flag("--max-deadline-ms", opts.maxDeadlineMs);
        // The workers run their own memory governors (soft pressure is
        // handled in-process; hard pressure rides the heartbeat back).
        if (opts.rssSoftMb > 0)
            flag("--rss-soft-mb", opts.rssSoftMb);
        if (opts.rssHardMb > 0)
            flag("--rss-hard-mb", opts.rssHardMb);
        if (opts.maxRequestBytes > 0)
            flag("--max-request-bytes", opts.maxRequestBytes);
        if (opts.allowFaults)
            cmd.push_back("--allow-faults");
        if (opts.noIncidents)
            cmd.push_back("--no-incidents");
        if (!opts.incidentsDir.empty()) {
            cmd.push_back("--incidents-dir");
            cmd.push_back(opts.incidentsDir);
        }
        if (!opts.caches.empty()) {
            cmd.push_back("--caches");
            cmd.push_back(opts.caches);
        }
        if (opts.noCache)
            cmd.push_back("--no-cache");
        if (opts.cacheEntries >= 0)
            flag("--cache-entries", opts.cacheEntries);
        if (opts.cacheBytes > 0)
            flag("--cache-bytes", opts.cacheBytes);
        if (!opts.cacheSnapshotDir.empty()) {
            cmd.push_back("--cache-snapshot-dir");
            cmd.push_back(opts.cacheSnapshotDir);
            if (opts.cacheSnapshotIntervalMs > 0)
                flag("--cache-snapshot-interval-ms",
                     opts.cacheSnapshotIntervalMs);
        }
        supopts.workerCommand = std::move(cmd);

        serve::Supervisor supervisor(std::move(supopts));
        return sockets ? serve::runListener(supervisor, topts)
                       : serve::runStdio(supervisor);
    }

    serve::Server server(sopts);
    return sockets ? serve::runListener(server, topts)
                   : serve::runStdio(server);
}

/**
 * One `metrics` request/response round trip against a running server.
 * Connects fresh each tick — at top's refresh rate that is cheap, and
 * it keeps the view working across server restarts.
 */
bool
fetchMetricsTcp(const std::string &host, int port, std::string &line)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        return false;
    }
    const std::string req = "{\"id\":\"top\",\"kind\":\"metrics\"}\n";
    size_t off = 0;
    while (off < req.size()) {
        ssize_t n = ::write(fd, req.data() + off, req.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            return false;
        }
        off += static_cast<size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
    std::string buf;
    char chunk[4096];
    for (;;) {
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break;
        buf.append(chunk, static_cast<size_t>(n));
        size_t pos = buf.find('\n');
        if (pos != std::string::npos) {
            buf.resize(pos);
            break;
        }
    }
    ::close(fd);
    if (buf.empty())
        return false;
    line = buf;
    return true;
}

/** Last non-empty line of a JSONL snapshot file. */
bool
tailSnapshotFile(const std::string &path, std::string &line)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string last, cur;
    while (std::getline(in, cur))
        if (!cur.empty())
            last = cur;
    if (last.empty())
        return false;
    line = std::move(last);
    return true;
}

/**
 * `memoria top`: render the live state of a running server (polled
 * with `metrics` requests over TCP) or of a `--metrics-file` snapshot
 * stream, refreshing in place until interrupted.
 */
int
cmdTop(const Options &opts)
{
    const int64_t intervalMs =
        opts.topIntervalMs > 0 ? opts.topIntervalMs : 1000;

    std::function<bool(std::string &)> fetch;
    std::string target;
    if (!opts.topFile.empty()) {
        const std::string path = opts.topFile;
        target = path;
        fetch = [path](std::string &line) {
            return tailSnapshotFile(path, line);
        };
    } else {
        // `memoria top host:port`, `memoria top PORT`, or --host/--port.
        std::string host = opts.host;
        int port = opts.port;
        if (opts.positional.size() > 1) {
            const std::string &hp = opts.positional[1];
            size_t colon = hp.rfind(':');
            if (colon == std::string::npos) {
                port = std::atoi(hp.c_str());
            } else {
                if (colon > 0)
                    host = hp.substr(0, colon);
                port = std::atoi(hp.c_str() + colon + 1);
            }
        }
        if (port <= 0) {
            std::cerr << "memoria top: wants host:port (or --file "
                         "snapshots.jsonl)\n";
            return 2;
        }
        target = host + ":" + std::to_string(port);
        fetch = [host, port](std::string &line) {
            return fetchMetricsTcp(host, port, line);
        };
    }

    serve::TopSample prev;
    bool havePrev = false;
    for (;;) {
        std::string line;
        if (!fetch(line)) {
            std::cerr << "memoria top: cannot fetch a metrics sample "
                         "from "
                      << target << "\n";
            return 1;
        }
        Result<json::Value> parsed = json::parse(line);
        if (!parsed.ok()) {
            std::cerr << "memoria top: bad metrics sample: "
                      << parsed.diag().str() << "\n";
            return 1;
        }
        serve::TopSample cur =
            serve::parseTopSample(parsed.value());
        std::string frame =
            serve::renderTopFrame(cur, havePrev ? &prev : nullptr);
        if (!opts.topOnce)
            std::cout << "\033[H\033[2J";
        std::cout << frame;
        std::cout.flush();
        if (opts.topOnce)
            return cur.valid ? 0 : 1;
        prev = cur;
        havePrev = true;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(intervalMs));
    }
}

/** The dotted code prefix of a rendered Diag ("code: message"). */
std::string
diagCodePrefix(const std::string &detail)
{
    size_t end = detail.find_first_of(": ");
    return end == std::string::npos ? detail : detail.substr(0, end);
}

std::optional<harness::BatchStatus>
batchStatusFromName(const std::string &name)
{
    using harness::BatchStatus;
    for (BatchStatus s :
         {BatchStatus::Ok, BatchStatus::Degraded, BatchStatus::Diag,
          BatchStatus::Timeout, BatchStatus::PanicContained})
        if (name == harness::batchStatusName(s))
            return s;
    return std::nullopt;
}

/**
 * `memoria reduce <bundle-dir>`: re-minimize a recorded incident with
 * offline budgets, replaying its failure signature and fault plan.
 * `memoria reduce <file.mem>`: run the pipeline once to learn how the
 * program fails, then minimize against that signature. Either way a
 * fresh bundle is written and its path printed.
 */
int
cmdReduce(const Options &opts)
{
    namespace fs = std::filesystem;
    const std::string &path = opts.positional[1];

    incident::IncidentPolicy policy;
    if (!opts.incidentsDir.empty())
        policy.dir = opts.incidentsDir;
    // Offline reduction affords bigger budgets than in-band capture.
    policy.reduce.deadlineMs =
        opts.deadlineMs > 0 ? opts.deadlineMs : 60000;
    policy.reduce.maxChecks =
        opts.maxChecks > 0 ? opts.maxChecks : 10000;

    harness::BatchOptions bopts;
    if (opts.maxIterations > 0)
        bopts.budget.maxInterpIterations =
            static_cast<uint64_t>(opts.maxIterations);
    if (opts.maxIrNodes > 0)
        bopts.budget.maxIrNodes =
            static_cast<uint64_t>(opts.maxIrNodes);

    auto readAll = [](const fs::path &p) -> std::optional<std::string> {
        std::ifstream in(p);
        if (!in)
            return std::nullopt;
        std::ostringstream buf;
        buf << in.rdbuf();
        return buf.str();
    };

    std::error_code ec;
    if (fs::is_directory(path, ec)) {
        auto metaText = readAll(fs::path(path) / "incident.json");
        if (!metaText) {
            std::cerr << "memoria reduce: no incident.json in '"
                      << path << "'\n";
            return 1;
        }
        Result<json::Value> meta = json::parse(*metaText);
        if (!meta.ok()) {
            std::cerr << "memoria reduce: " << meta.diag().str()
                      << "\n";
            return 1;
        }
        std::string name = meta.value().getString("name", "anon");
        std::string kind = meta.value().getString("kind", "");
        std::string detail = meta.value().getString("detail", "");
        std::string faultSpec =
            meta.value().getString("fault_spec", "");
        auto originalText = readAll(fs::path(path) / "original.mem");
        if (!originalText) {
            std::cerr << "memoria reduce: no original.mem in '"
                      << path << "'\n";
            return 1;
        }
        ParseError perr;
        auto prog = parseProgram(*originalText, &perr);
        if (!prog) {
            std::cerr << "memoria reduce: original.mem does not "
                         "parse: " << perr.str() << "\n";
            return 1;
        }

        incident::FailureSignature sig;
        auto status = batchStatusFromName(kind);
        if (status && *status != harness::BatchStatus::Ok) {
            sig.status = *status;
            if (*status == harness::BatchStatus::Diag)
                sig.diagCode = diagCodePrefix(detail);
        } else if (kind == "degraded") {
            sig.status = harness::BatchStatus::Degraded;
        } else {
            // Fuzz bundles record the broken property, not a batch
            // status; re-check that property directly.
            incident::Incident inc;
            inc.name = name;
            inc.kind = kind;
            inc.detail = detail;
            inc.source = *originalText;
            Result<std::string> bundle = incident::captureIncident(
                std::move(inc), *prog, fuzzFailurePredicate(kind),
                policy);
            if (!bundle.ok()) {
                std::cerr << "memoria reduce: "
                          << bundle.diag().str() << "\n";
                return 1;
            }
            std::cout << "incident: " << bundle.value() << "\n";
            return 0;
        }

        std::optional<harness::FaultSpec> fault;
        if (!faultSpec.empty()) {
            Result<harness::FaultSpec> spec =
                harness::parseFaultSpec(faultSpec);
            if (spec.ok())
                fault = spec.value();
            else
                warn("reduce: ignoring unparsable fault_spec '" +
                     faultSpec + "'");
        }

        incident::Incident inc;
        inc.name = name;
        inc.kind = kind;
        inc.detail = detail;
        inc.source = *originalText;
        inc.faultSpec = faultSpec;
        harness::setFaultAccounting(true);
        Result<std::string> bundle = incident::captureIncident(
            std::move(inc), *prog,
            incident::pipelineFailurePredicate(name, bopts, sig,
                                               fault),
            policy);
        harness::clearFault();
        if (!bundle.ok()) {
            std::cerr << "memoria reduce: " << bundle.diag().str()
                      << "\n";
            return 1;
        }
        std::cout << "incident: " << bundle.value() << "\n";
        return 0;
    }

    // Bare source file: learn the failure signature by running the
    // isolated pipeline once, then minimize against it.
    auto text = readAll(path);
    if (!text) {
        std::cerr << "memoria reduce: cannot read '" << path << "'\n";
        return 1;
    }
    bopts.captureSource = true;
    std::string name = fs::path(path).stem().string();
    harness::ProgramOutcome out = harness::runIsolated(
        harness::namedInput(name, *text), bopts);
    if (out.status == harness::BatchStatus::Ok) {
        std::cout << "reduce: '" << path
                  << "' passes the pipeline; nothing to reduce\n";
        return 1;
    }
    Result<std::string> bundle =
        incident::captureOutcome(out, bopts, policy);
    if (!bundle.ok()) {
        std::cerr << "memoria reduce: " << bundle.diag().str() << "\n";
        return 1;
    }
    std::cout << "incident: " << bundle.value() << "\n";
    return 0;
}

int
run(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    if (!opts.error.empty()) {
        std::cerr << "memoria: " << opts.error << "\n" << usageText();
        return 2;
    }
    applyVerbosity(opts);

    if (opts.help) {
        std::cout << usageText();
        return 0;
    }
    if (opts.version) {
        std::cout << versionLine() << "\n";
        return 0;
    }
    if (opts.positional.empty()) {
        std::cerr << usageText();
        return 2;
    }

    const std::string &cmd = opts.positional[0];

    std::unique_ptr<obs::TraceSink> sink;
    if (!opts.traceFile.empty())
        sink = std::make_unique<obs::JsonLinesSink>(opts.traceFile);
    else if (opts.traceText)
        sink = std::make_unique<obs::TextSink>(std::cerr);
    // Commands that can write incident bundles keep a flight recorder
    // so the bundles carry a trace tail (tee'd into any requested
    // sink).
    if (cmd == "serve" || cmd == "reduce" || cmd == "fuzz" ||
        cmd == "batch") {
        std::unique_ptr<obs::TraceSink> ring =
            std::make_unique<obs::RingSink>(256);
        if (sink)
            sink = std::make_unique<obs::TeeSink>(std::move(sink),
                                                  std::move(ring));
        else
            sink = std::move(ring);
    }
    if (sink)
        obs::setTraceSink(std::move(sink));

    // One-shot commands flush diagnostics and exit on SIGINT/SIGTERM;
    // `serve` installs the cooperative drain handler instead.
    if (cmd != "serve") {
        signals::installFlushOnSignal();
        if (opts.statsText || opts.statsJson)
            signals::addFlushCallback([json = opts.statsJson] {
                if (json)
                    obs::statsRegistry().dumpJson(std::cerr);
                else
                    obs::statsRegistry().dumpText(std::cerr);
            });
    }

    int rc = 2;
    if (cmd == "list") {
        rc = cmdList();
    } else if (cmd == "version") {
        std::cout << versionLine() << "\n";
        rc = 0;
    } else if (cmd == "serve") {
        rc = cmdServe(opts);
    } else if (cmd == "top") {
        rc = cmdTop(opts);
    } else if (cmd == "reduce") {
        if (opts.positional.size() < 2) {
            std::cerr << "memoria reduce: need a bundle directory or "
                         "source file\n";
            rc = 2;
        } else {
            rc = cmdReduce(opts);
        }
    } else if (cmd == "batch") {
        rc = cmdBatch(opts);
    } else if (cmd == "bench") {
        rc = cmdBench(opts);
    } else if (cmd == "fuzz") {
        if (opts.fuzzCount <= 0) {
            std::cerr << "memoria: --count must be positive\n";
            rc = 2;
        } else {
            rc = cmdFuzz(opts);
        }
    } else if (opts.positional.size() < 2) {
        std::cerr << "missing program name; try `memoria list`\n";
    } else {
        int64_t n = opts.positional.size() > 2
                        ? std::atoll(opts.positional[2].c_str())
                        : 48;
        Result<Program> resolved = resolve(opts.positional[1], n);
        if (!resolved.ok()) {
            std::cerr << "memoria: " << resolved.diag().str() << "\n";
            rc = 1;
        } else {
            Program prog = std::move(resolved.value());
            if (cmd == "print") {
                std::cout << printProgram(prog);
                rc = 0;
            } else if (cmd == "analyze") {
                rc = cmdAnalyze(std::move(prog));
            } else if (cmd == "optimize") {
                rc = cmdOptimize(std::move(prog));
            } else if (cmd == "simulate") {
                rc = cmdSimulate(std::move(prog));
            } else if (cmd == "reuse") {
                rc = cmdReuse(std::move(prog));
            } else if (cmd == "trace") {
                rc = cmdTrace(std::move(prog));
            } else {
                std::cerr << "unknown command '" << cmd << "'\n";
            }
        }
    }

    if (opts.statsJson)
        obs::statsRegistry().dumpJson(std::cout);
    else if (opts.statsText)
        obs::statsRegistry().dumpText(std::cout);

    obs::setTraceSink(nullptr);  // flush and close any trace file
    return rc;
}

} // namespace
} // namespace memoria

int
main(int argc, char **argv)
{
    return memoria::run(argc, argv);
}
