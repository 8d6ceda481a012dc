/**
 * @file
 * memoria — command-line driver.
 *
 *   memoria <command> [arguments] [flags]
 *
 * Each command declares its flags once, in a table whose setters store
 * straight into the options the command runs with; `memoria --help`
 * renders those tables and is the flag reference. A command accepts
 * the global flags and its own, before or after the command word; any
 * other flag is a usage error.
 *
 * Exit codes: 0 = success, 1 = pipeline failure (bad input program,
 * fuzzing or sweep found failures), 2 = usage error. A `batch` run that
 * *contains* per-program failures still exits 0 — containment is the
 * command's contract; parse the JSON report for per-program status.
 *
 * <program> is a kernel name (matmul-ijk, matmul-jki, cholesky, adi,
 * erlebacher, gmtry, simple, vpenta, jacobi), a corpus program name
 * (adm, arc2d, ..., wave; the corpus erlebacher and simple, shadowed
 * by kernels, are corpus/erlebacher and corpus/simple), or a path to a
 * source file written in the loop-nest language (see
 * src/frontend/parser.hh and examples/stencil.mem). N, the program
 * size, must be a whole number > 0; numeric flags must be whole numbers
 * in range. Anything else is a usage error.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
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
#include "check/validate.hh"
#include "driver/fuzzcheck.hh"
#include "perf/bench.hh"
#include "frontend/parser.hh"
#include "harness/batch.hh"
#include "harness/fault.hh"
#include "harness/incident.hh"
#include "serve/listener.hh"
#include "serve/supervisor.hh"
#include "serve/top.hh"
#include "support/fdio.hh"
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
#include "support/table.hh"

namespace memoria {
namespace {

int
cmdList()
{
    std::cout << "kernels:\n";
    for (const harness::BatchInput &k : harness::kernelInputs())
        std::cout << "  " << k.name << "\n";
    std::cout << "corpus programs:\n ";
    for (const auto &spec : corpusSpecs())
        std::cout << " " << harness::corpusInputName(spec.name);
    std::cout << "\n";
    return 0;
}

/** Report a failed one-shot command (bad input program): exit 1. */
int
failed(const Diag &d)
{
    std::cerr << "memoria: " << d.str() << "\n";
    return 1;
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
cmdOptimize(const OptimizedProgram &opt)
{
    std::cout << "--- original ---\n" << printProgram(opt.original)
              << "\n--- transformed ---\n"
              << printProgram(opt.transformed);
    std::cout << "nests: " << opt.report.nests
              << "  in memory order: " << opt.report.nestsOrig << "+"
              << opt.report.nestsPerm << "  failed: "
              << opt.report.nestsFail
              << "  fused: " << opt.report.fusion.fused
              << "  distributed: " << opt.report.distributions << "\n";
    Result<uint64_t> orig = tryRunChecksum(opt.original);
    if (!orig.ok())
        return failed(orig.diag());
    Result<uint64_t> fin = tryRunChecksum(opt.transformed);
    if (!fin.ok())
        return failed(fin.diag());
    std::cout << "semantics preserved: "
              << (orig.value() == fin.value() ? "yes" : "NO") << "\n";
    return 0;
}

int
cmdSimulate(const OptimizedProgram &opt)
{
    const std::vector<CacheConfig> configs = {CacheConfig::rs6000(),
                                              CacheConfig::i860()};
    std::vector<Performance> perf;
    Result<std::vector<HitRates>> rates =
        simulateHitRates(opt, configs, &perf);
    if (!rates.ok())
        return failed(rates.diag());
    TextTable t({"cache", "whole orig hit%", "whole final hit%",
                 "speedup"});
    for (size_t i = 0; i < configs.size(); ++i) {
        const HitRates &r = rates.value()[i];
        t.addRow({configs[i].name, TextTable::num(r.wholeOrig, 2),
                  TextTable::num(r.wholeFinal, 2),
                  TextTable::num(perf[i].speedup(), 2)});
    }
    std::cout << t.str();
    return 0;
}

int
cmdReuse(const OptimizedProgram &opt)
{
    ReuseDistanceAnalyzer r0(32), r1(32);
    Status st = Interpreter(opt.original).run(&r0);
    if (st.ok())
        st = Interpreter(opt.transformed).run(&r1);
    if (!st.ok())
        return failed(st.diag());
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
cmdTrace(const OptimizedProgram &opt)
{

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
    Result<std::vector<HitRates>> rates =
        simulateHitRates(opt, {CacheConfig::i860()});
    if (!rates.ok())
        return failed(rates.diag());
    std::cout << "whole-program hit% (warm, i860): "
              << TextTable::num(rates.value()[0].wholeOrig, 2) << " -> "
              << TextTable::num(rates.value()[0].wholeFinal, 2) << "\n";
    return 0;
}

constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();
constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
/** Upper bound of --jobs and --workers. */
constexpr int64_t kMaxJobs = 1024;

/** A whole decimal integer in [lo, hi]; nullopt for anything else. */
std::optional<int64_t>
parseInteger(const std::string &s, int64_t lo, int64_t hi)
{
    int64_t v = 0;
    const char *end = s.data() + s.size();
    auto [p, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || p != end || s.empty() || v < lo || v > hi)
        return std::nullopt;
    return v;
}

/** Stores one flag's value ("" for a switch); false rejects it. */
using Setter = std::function<bool(const std::string &)>;

/**
 * One flag of one command: its name, the value hint and the help line
 * that `--help` prints, and the setter. A switch has no hint; a hint
 * "[=V]" marks a value that is optional and given inline only
 * (`--stats`, `--stats=json`).
 */
struct Flag
{
    const char *name;
    const char *value;
    const char *help;
    Setter set;
};
using Flags = std::vector<Flag>;

struct Command;

/** The command line, once its flags are stored. */
struct Args
{
    const Command *command = nullptr;  ///< named by the first word
    std::string argv0;
    std::vector<std::string> words;  ///< non-flag arguments; [0] = command
    /** argv after argv0 minus --trace and --stats: a serve front's
     *  worker command line (the trace and stats belong to the front). */
    std::vector<std::string> workerArgs;
    std::string error;  ///< usage error; non-empty = exit 2
};

/** A switch: stores `to` when given. */
Setter
store(bool &field, bool to = true)
{
    return [&field, to](const std::string &) {
        field = to;
        return true;
    };
}

Setter
text(std::string &field)
{
    return [&field](const std::string &v) {
        field = v;
        return true;
    };
}

/** Whole numbers in [lo, hi], stored shifted left by `shift` bits
 *  (20 turns megabytes into bytes). */
template <typename T>
Setter
number(T &field, int64_t lo = 0, int64_t hi = kMax64, int shift = 0)
{
    return [&field, lo, hi, shift](const std::string &v) {
        std::optional<int64_t> x = parseInteger(v, lo, hi);
        if (x)
            field = static_cast<T>(*x) << shift;
        return x.has_value();
    };
}

/** Whole numbers in [0, hi]; 0 keeps the field's default. */
template <typename T>
Setter
orDefault(T &field, int64_t hi = kMax64)
{
    return [&field, hi](const std::string &v) {
        std::optional<int64_t> x = parseInteger(v, 0, hi);
        if (x && *x > 0)
            field = static_cast<T>(*x);
        return x.has_value();
    };
}

/**
 * --caches: i860, rs6000, both, or a comma-separated list of those.
 * An empty value keeps the default.
 */
Setter
caches(std::vector<CacheConfig> &field)
{
    return [&field](const std::string &spec) {
        std::vector<CacheConfig> configs;
        std::stringstream ss(spec);
        for (std::string item; std::getline(ss, item, ',');) {
            if (item == "i860")
                configs.push_back(CacheConfig::i860());
            else if (item == "rs6000")
                configs.push_back(CacheConfig::rs6000());
            else if (item == "both")
                configs.insert(configs.end(), {CacheConfig::rs6000(),
                                               CacheConfig::i860()});
            else
                return false;
        }
        if (!spec.empty())
            field = std::move(configs);
        return true;
    };
}

/** --incidents-dir, for each command that writes bundles; an empty
 *  value keeps the default. */
Flag
incidentsDir(incident::IncidentPolicy &policy)
{
    return {"--incidents-dir", "DIR",
            "bundle root (default artifacts/incidents)",
            [&policy](const std::string &v) {
                policy.dir = v.empty() ? policy.dir : v;
                return true;
            }};
}

/** `memoria bench`: times the pipeline's hot paths with warmup and
 *  repetition; see docs/PERFORMANCE.md. */
struct BenchCommand
{
    perf::BenchOptions options;
    bool json = false;
    const Flags flags = {
        {"--reps", "N", "timed repetitions per benchmark (default 5)",
         number(options.reps, 1, kMaxInt)},
        {"--warmup", "N", "untimed warmup repetitions (default 1)",
         number(options.warmup, 0, kMaxInt)},
        {"--filter", "S", "run the benchmarks whose name contains S",
         text(options.filter)},
        {"--json", "", "emit the stable BENCH.json schema", store(json)},
    };

    int
    run(const Args &)
    {
        perf::BenchReport report = perf::runBenchSuite(options);
        if (report.results.empty()) {
            std::cerr << "memoria bench: no benchmark matches filter '"
                      << options.filter << "'\n";
            return 1;
        }
        if (json)
            std::cout << report.toJson() << "\n";
        else
            std::cout << report.toText();
        return 0;
    }
};

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

/** `memoria fuzz`: differential fuzzing over the whole pipeline; see
 *  driver/fuzzcheck.hh for the per-round protocol. Failures are
 *  minimized into incident bundles unless --no-incidents. */
struct FuzzCommand
{
    uint64_t seed = 1;
    int count = 100;
    int jobs = 1;
    bool noIncidents = false;
    incident::IncidentPolicy policy;

    const Flags flags = {
        {"--seed", "N", "seed of the first program (default 1)",
         [this](const std::string &v) {
             const char *end = v.data() + v.size();
             auto [p, ec] = std::from_chars(v.data(), end, seed);
             return ec == std::errc() && p == end && !v.empty();
         }},
        {"--count", "N", "programs to generate (default 100)",
         number(count, 1, kMaxInt)},
        {"--jobs", "N", "worker threads (default 1)",
         orDefault(jobs, kMaxJobs)},
        {"--no-incidents", "", "don't minimize failures into bundles",
         store(noIncidents)},
        incidentsDir(policy),
    };

    int
    run(const Args &)
    {
        FuzzReport rep = runFuzzCampaign(seed, count, {}, jobs);
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

        int written = 0;
        for (const FuzzReport::Failure &f : rep.failures) {
            if (noIncidents || written >= policy.maxIncidents)
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

        std::cout << "FUZZING FOUND FAILURES\n";
        return 1;
    }
};

/** `memoria batch`: the whole pipeline over many programs, with
 *  per-program crash isolation, budgets and the degradation ladder
 *  (docs/ROBUSTNESS.md). */
struct BatchCommand
{
    harness::BatchOptions options;
    incident::IncidentPolicy policy;
    bool all = false;
    bool fromStdin = false;
    bool json = false;
    bool sweep = false;
    bool listFaults = false;
    std::string fault;

    const Flags flags = {
        {"--all", "", "kernels, corpus and examples/*.mem", store(all)},
        {"--stdin", "", "read program names or paths from stdin",
         store(fromStdin)},
        {"--jobs", "N", "worker threads (default: cores, at most 4)",
         orDefault(options.jobs, kMaxJobs)},
        {"--deadline-ms", "N", "wall-clock budget per ladder attempt",
         number(options.budget.deadlineMs)},
        {"--max-iterations", "N", "interpreter iterations per attempt",
         number(options.budget.maxInterpIterations)},
        {"--max-ir-nodes", "N", "IR nodes per program version",
         number(options.budget.maxIrNodes)},
        {"--json", "", "print the machine-readable report", store(json)},
        {"--fault", "SPEC", "arm one fault: site[:action[:N]][@prog]",
         text(fault)},
        {"--fault-sweep", "", "arm each site in turn; check containment",
         store(sweep)},
        {"--list-faults", "", "print the fault-site catalog",
         store(listFaults)},
        // Bundling re-runs failures against their captured source.
        {"--incidents", "", "minimize contained failures into bundles",
         store(options.captureSource)},
        incidentsDir(policy),
        {"--caches", "i860|rs6000|both",
         "cache geometries to simulate (default i860)",
         caches(options.cacheConfigs)},
    };

    BatchCommand()
    {
        // --jobs 0, the default: one thread per core, 1 to 4.
        options.jobs = std::clamp<int>(
            static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
    }

    int
    run(const Args &args)
    {
        if (listFaults) {
            for (const std::string &site : harness::faultSites())
                std::cout << site
                          << (harness::faultSiteSupportsDiag(site)
                                  ? " (diag)"
                                  : "")
                          << "\n";
            return 0;
        }

        std::vector<harness::BatchInput> inputs;
        if (all) {
            inputs = harness::kernelInputs();
            for (harness::BatchInput &in : harness::corpusInputs())
                inputs.push_back(std::move(in));
            for (harness::BatchInput &in :
                 harness::directoryInputs("examples"))
                inputs.push_back(std::move(in));
        }
        if (fromStdin) {
            std::string line;
            while (std::getline(std::cin, line)) {
                while (!line.empty() &&
                       isspace(static_cast<unsigned char>(line.back())))
                    line.pop_back();
                if (!line.empty() && line[0] != '#')
                    inputs.push_back(harness::programInput(line));
            }
        }
        for (size_t i = 1; i < args.words.size(); ++i)
            inputs.push_back(harness::programInput(args.words[i]));

        if (inputs.empty()) {
            std::cerr << "memoria batch: no inputs; use --all, --stdin, "
                         "or program names\n";
            return 2;
        }

        if (sweep)
            return runFaultSweep(inputs, options);

        if (!fault.empty()) {
            Result<harness::FaultSpec> spec = harness::parseFaultSpec(fault);
            if (!spec.ok()) {
                std::cerr << "memoria batch: " << spec.diag().str() << "\n";
                return 2;
            }
            harness::armFault(spec.value());
        }

        harness::BatchReport rep = harness::runBatch(inputs, options);

        // --incidents. Runs before clearFault(): bundling re-arms the
        // still-armed plan around each reduction so fault-induced
        // failures reproduce.
        std::vector<std::string> bundles;
        if (options.captureSource)
            bundles = incident::processBatchIncidents(rep, options, policy);
        harness::clearFault();

        if (json)
            std::cout << rep.toJson() << "\n";
        else
            printBatchSummary(rep);
        for (const std::string &b : bundles)
            std::cout << "incident: " << b << "\n";

        // Containment is the contract: per-program failures are
        // reported, not escalated to the exit code.
        return 0;
    }
};

/** `memoria serve`: answer JSON-lines requests from stdin, or from TCP
 *  or Unix-socket clients, until EOF or a drain signal; exit 0 on a
 *  clean drain. See docs/SERVING.md. */
struct ServeCommand
{
    serve::ServeOptions opts;  ///< every shard's
    serve::SupervisorOptions front;
    serve::TransportOptions net;
    bool noCache = false;
    std::string snapshotDir;
    int workerFd = -1;
    const Flags flags = {
        {"--jobs", "N", "executor threads per shard (default 2)",
         orDefault(opts.jobs, kMaxJobs)},
        {"--queue", "N", "admission queue per shard (default 16)",
         orDefault(opts.queueCapacity, kMaxInt)},
        {"--deadline-ms", "N", "default request budget (default 2000)",
         orDefault(opts.budget.deadlineMs)},
        {"--max-deadline-ms", "N", "clamp on client deadlines (default 30000)",
         orDefault(opts.maxDeadlineMs)},
        {"--drain-deadline-ms", "N",
         "grace for queued work at drain (default 5000)",
         orDefault(opts.drainDeadlineMs)},
        {"--max-iterations", "N",
         "interpreter steps per request (default 50 Mi)",
         orDefault(opts.budget.maxInterpIterations)},
        {"--max-ir-nodes", "N", "IR nodes per program version (default 1 Mi)",
         orDefault(opts.budget.maxIrNodes)},
        {"--max-request-bytes", "N", "longest request line (default 4 MiB)",
         orDefault(opts.maxRequestBytes)},
        {"--retry-after-ms", "N", "backoff hint when shedding (default 50)",
         orDefault(opts.retryAfterMs)},
        {"--client-cap", "N", "queued + running cap per client (0 = off)",
         number(opts.perClientCap)},
        {"--age-ms", "N", "CoDel target age of the queue head (0 = off)",
         number(opts.ageTargetMs)},
        {"--rss-soft-mb", "N", "soft memory watermark (0 = off)",
         number(opts.rssSoftBytes, 0, kMax64 >> 20, 20)},
        {"--rss-hard-mb", "N", "hard memory watermark (0 = off)",
         number(opts.rssHardBytes, 0, kMax64 >> 20, 20)},
        {"--caches", "i860|rs6000|both",
         "cache geometries to simulate (default i860)",
         caches(opts.cacheConfigs)},
        {"--allow-faults", "", "honor per-request fault injection",
         store(opts.allowFaultRequests)},
        {"--no-incidents", "", "write no incident bundles",
         store(opts.writeIncidents, false)},
        incidentsDir(opts.incidents),
        {"--cache-entries", "N", "result-cache entries (default 512; 0 = off)",
         number(opts.resultCache.maxEntries)},
        {"--cache-bytes", "N", "result-cache bytes (default 32 MiB)",
         orDefault(opts.resultCache.maxBytes)},
        {"--no-cache", "", "turn the result cache off", store(noCache)},
        {"--cache-snapshot-dir", "DIR", "keep cache-shard<K>.snap here",
         text(snapshotDir)},
        {"--cache-snapshot-interval-ms", "N",
         "snapshot period (default 0: only at drain)",
         number(opts.cacheSnapshotIntervalMs)},
        {"--port", "N", "serve TCP (0 = an ephemeral port)",
         number(net.port, 0, 65535)},
        {"--host", "H", "TCP bind address (default 127.0.0.1)",
         text(net.host)},
        {"--socket", "PATH", "serve a Unix-domain socket", text(net.unixPath)},
        {"--metrics-port", "N", "Prometheus scrape port (0 = ephemeral)",
         number(net.metricsPort, 0, 65535)},
        {"--metrics-file", "PATH", "append JSONL metrics snapshots",
         text(opts.metricsPath)},
        {"--metrics-interval-ms", "N",
         "snapshot period (default 0: only at drain)",
         number(opts.metricsIntervalMs)},
        {"--workers", "N", "shard-worker processes (0 = in-process)",
         number(front.workers, 0, kMaxJobs)},
        {"--heartbeat-ms", "N", "worker liveness probe period (default 500)",
         orDefault(front.heartbeatMs)},
        {"--max-requests-per-worker", "N",
         "recycle a worker after N requests (0 = never)",
         number(front.maxRequestsPerWorker)},
        {"--journal", "PATH|none",
         "write-ahead admission journal ('none': off)",
         [this](const std::string &v) {
             if (!v.empty())
                 front.journalPath = v == "none" ? "" : v;
             return true;
         }},
        {"--worker-fd", "N", "internal: serve the front on this fd",
         number(workerFd, 0, kMaxInt)},
        {"--shard", "N", "internal: this worker's shard index",
         number(opts.shard, 0, kMaxInt)},
    };

    ServeCommand()
    {
        front.workers = 0;  // in-process unless --workers
        front.journalPath = "artifacts/serve/journal.jsonl";
    }

    int
    run(const Args &args)
    {
        // Cooperative drain: SIGTERM/SIGINT set a flag the transport
        // loops poll; a second signal escalates to flush-and-exit.
        signals::installDrainHandler();
        if (noCache)
            opts.resultCache.maxEntries = 0;
        // One durable snapshot per shard (shard -1, plain
        // single-process serve, uses shard 0's file).
        if (!snapshotDir.empty())
            opts.cacheSnapshotPath =
                snapshotDir + "/cache-shard" +
                std::to_string(std::max(0, opts.shard)) + ".snap";

        // Shard-worker mode (spawned by the supervisor, never by hand):
        // a bare executor running what the front forwards over the
        // inherited socketpair fd. Admission and metrics export stay
        // with the parent.
        if (workerFd >= 0) {
            serve::Executor executor(opts);
            return serve::runWorkerFd(executor, workerFd);
        }

        net.stdio = net.port < 0 && net.unixPath.empty();
        if (front.workers == 0) {
            serve::Server server(opts);
            return net.stdio ? serve::runStdio(server)
                             : serve::runListener(server, net);
        }

        // Workers re-exec this binary; /proc/self/exe survives PATH
        // lookups and cwd changes, argv[0] is the fallback.
        std::string self = args.argv0;
        char buf[4096];
        ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
        if (n > 0)
            self.assign(buf, static_cast<size_t>(n));
        // A worker takes the front's own flags: the front-only ones are
        // never read in worker mode, or land in options the executor
        // ignores. The trace and stats stay the front's.
        front.workerCommand = {self};
        front.workerCommand.insert(front.workerCommand.end(),
                                   args.workerArgs.begin(),
                                   args.workerArgs.end());
        front.serve = opts;
        serve::Supervisor supervisor(std::move(front));
        return net.stdio ? serve::runStdio(supervisor)
                         : serve::runListener(supervisor, net);
    }
};

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
    if (writeAll(fd, "{\"id\":\"top\",\"kind\":\"metrics\"}\n") != 0) {
        ::close(fd);
        return false;
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
struct TopCommand
{
    std::string file;
    std::string host = "127.0.0.1";
    int port = -1;
    int64_t intervalMs = 1000;
    bool once = false;

    const Flags flags = {
        {"--file", "PATH", "tail a serve --metrics-file stream", text(file)},
        {"--host", "H", "server address (default 127.0.0.1)", text(host)},
        {"--port", "N", "server TCP port", number(port, 0, 65535)},
        {"--interval-ms", "N", "refresh period (default 1000)",
         orDefault(intervalMs)},
        {"--once", "", "print one frame and exit", store(once)},
    };

    int
    run(const Args &args)
    {
        // `memoria top host:port`, `memoria top PORT`, or --host/--port.
        if (file.empty() && args.words.size() > 1) {
            const std::string &hp = args.words[1];
            size_t colon = hp.rfind(':');
            std::string portText = hp;
            if (colon != std::string::npos) {
                if (colon > 0)
                    host = hp.substr(0, colon);
                portText = hp.substr(colon + 1);
            }
            port = static_cast<int>(
                parseInteger(portText, 1, 65535).value_or(0));
        }
        if (file.empty() && port <= 0) {
            std::cerr << "memoria top: wants host:port (or --file "
                         "snapshots.jsonl)\n";
            return 2;
        }
        const std::string target =
            file.empty() ? host + ":" + std::to_string(port) : file;

        serve::TopSample prev;
        bool havePrev = false;
        for (;;) {
            std::string line;
            if (!(file.empty() ? fetchMetricsTcp(host, port, line)
                               : tailSnapshotFile(file, line))) {
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
            serve::TopSample cur = serve::parseTopSample(parsed.value());
            std::string frame =
                serve::renderTopFrame(cur, havePrev ? &prev : nullptr);
            if (!once)
                std::cout << "\033[H\033[2J";
            std::cout << frame;
            std::cout.flush();
            if (once)
                return cur.valid ? 0 : 1;
            prev = cur;
            havePrev = true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(intervalMs));
        }
    }
};

/**
 * `memoria reduce <bundle-dir>`: re-minimize a recorded incident with
 * offline budgets, replaying its failure signature and fault plan.
 * `memoria reduce <file.mem>`: run the pipeline once to learn how the
 * program fails, then minimize against that signature. Either way a
 * fresh bundle is written and its path printed.
 */
struct ReduceCommand
{
    incident::IncidentPolicy policy;
    harness::BatchOptions options;
    const Flags flags = {
        {"--deadline-ms", "N", "reduction time budget (default 60000)",
         orDefault(policy.reduce.deadlineMs)},
        {"--max-checks", "N", "predicate runs budget (default 10000)",
         orDefault(policy.reduce.maxChecks, kMaxInt)},
        {"--max-iterations", "N", "interpreter iterations per run",
         number(options.budget.maxInterpIterations)},
        {"--max-ir-nodes", "N", "IR nodes per program version",
         number(options.budget.maxIrNodes)},
        incidentsDir(policy),
    };

    ReduceCommand()
    {
        // Offline reduction affords bigger budgets than in-band capture.
        policy.reduce.deadlineMs = 60000;
        policy.reduce.maxChecks = 10000;
    }

    int
    run(const Args &args)
    {
        namespace fs = std::filesystem;
        auto fail = [](const std::string &why) {
            std::cerr << "memoria reduce: " << why << "\n";
            return 1;
        };
        auto report = [&fail](const Result<std::string> &bundle) {
            if (!bundle.ok())
                return fail(bundle.diag().str());
            std::cout << "incident: " << bundle.value() << "\n";
            return 0;
        };
        auto readAll = [](const fs::path &p) -> std::optional<std::string> {
            std::ifstream in(p);
            if (!in)
                return std::nullopt;
            std::ostringstream buf;
            buf << in.rdbuf();
            return buf.str();
        };
        if (args.words.size() < 2) {
            fail("need a bundle directory or source file");
            return 2;
        }
        const std::string &path = args.words[1];

        std::error_code ec;
        if (!fs::is_directory(path, ec)) {
            // Bare source file: learn the failure signature by running
            // the isolated pipeline once, then minimize against it.
            auto text = readAll(path);
            if (!text)
                return fail("cannot read '" + path + "'");
            options.captureSource = true;
            harness::ProgramOutcome out = harness::runIsolated(
                harness::namedInput(fs::path(path).stem().string(), *text),
                options);
            if (out.status == harness::BatchStatus::Ok) {
                std::cout << "reduce: '" << path
                          << "' passes the pipeline; nothing to reduce\n";
                return 1;
            }
            return report(incident::captureOutcome(out, options, policy));
        }

        auto metaText = readAll(fs::path(path) / "incident.json");
        if (!metaText)
            return fail("no incident.json in '" + path + "'");
        Result<json::Value> meta = json::parse(*metaText);
        if (!meta.ok())
            return fail(meta.diag().str());
        auto originalText = readAll(fs::path(path) / "original.mem");
        if (!originalText)
            return fail("no original.mem in '" + path + "'");
        ParseError perr;
        auto prog = parseProgram(*originalText, &perr);
        if (!prog)
            return fail("original.mem does not parse: " + perr.str());

        incident::Incident inc;
        inc.name = meta.value().getString("name", "anon");
        inc.kind = meta.value().getString("kind", "");
        inc.detail = meta.value().getString("detail", "");
        inc.source = *originalText;
        incident::FailureSignature sig;
        auto status = harness::batchStatusFromName(inc.kind);
        if (status && *status != harness::BatchStatus::Ok) {
            sig.status = *status;
            if (*status == harness::BatchStatus::Diag)
                sig.diagCode = incident::diagCodeOf(inc.detail);
        } else if (inc.kind == "degraded") {
            sig.status = harness::BatchStatus::Degraded;
        } else {
            // Fuzz bundles record the broken property, not a batch
            // status; re-check that property directly.
            const std::string kind = inc.kind;
            return report(incident::captureIncident(
                std::move(inc), *prog, fuzzFailurePredicate(kind), policy));
        }

        inc.faultSpec = meta.value().getString("fault_spec", "");
        std::optional<harness::FaultSpec> fault;
        if (!inc.faultSpec.empty()) {
            Result<harness::FaultSpec> spec =
                harness::parseFaultSpec(inc.faultSpec);
            if (spec.ok())
                fault = spec.value();
            else
                warn("reduce: ignoring unparsable fault_spec '" +
                     inc.faultSpec + "'");
        }
        harness::setFaultAccounting(true);
        const std::string name = inc.name;
        Result<std::string> bundle = incident::captureIncident(
            std::move(inc), *prog,
            incident::pipelineFailurePredicate(name, options, sig, fault),
            policy);
        harness::clearFault();
        return report(bundle);
    }
};

/** The flags every command accepts. */
struct Globals
{
    bool help = false;
    bool version = false;
    std::string traceFile;
    bool traceText = false;
    bool statsText = false;
    bool statsJson = false;

    const Flags flags = {
        {"--help", "", "print this help and exit 0", store(help)},
        {"-h", "", "same as --help", store(help)},
        {"--version", "", "print the build identity and exit 0",
         store(version)},
        {"--trace", "[=FILE]", "trace to stderr, or as JSON lines to FILE",
         [this](const std::string &v) {
             if (v.empty())
                 traceText = true;
             else
                 traceFile = v;
             return true;
         }},
        {"--stats", "[=json]", "print the stats registry at exit",
         [this](const std::string &v) {
             (v.empty() ? statsText : statsJson) = true;
             return v.empty() || v == "json";
         }},
        {"-q", "", "silence warnings (or MEMORIA_LOG_LEVEL=quiet)",
         [](const std::string &) {
             setLogLevel(LogLevel::Quiet);
             return true;
         }},
    };
};

/** A command: its --help synopsis, whose first word lists the names it
 *  answers to ('|'-separated), its flags, and its body. */
struct Command
{
    std::string synopsis;
    Flags flags;
    std::function<int(const Args &)> run;
};

const Flag *
findFlag(const Flags &flags, const std::string &name)
{
    for (const Flag &f : flags)
        if (name == f.name)
            return &f;
    return nullptr;
}

bool
isFlag(const std::string &arg)
{
    return arg.size() > 1 && arg[0] == '-' &&
           !isdigit(static_cast<unsigned char>(arg[1]));
}

/** True when the flag takes the next argument (or "=V") as its value. */
bool
takesValue(const Flag &f)
{
    return *f.value && *f.value != '[';
}

/**
 * Store argv's flags through the global table and the command's own.
 * The command word is the first argument that is neither a flag nor a
 * flag's value, so flags may come before it; no flag takes a value in
 * one table and none in another, so any table can tell.
 */
Args
parseArgs(int argc, char **argv, const Flags &globals,
          const std::vector<Command> &commands)
{
    Args args;
    args.argv0 = argc > 0 ? argv[0] : "";
    std::string word;
    for (int i = 1; i < argc; ++i) {
        if (!isFlag(argv[i])) {
            word = argv[i];
            break;
        }
        const Flag *f = nullptr;
        for (const Command &c : commands)
            f = f ? f : findFlag(c.flags, argv[i]);
        i += f && takesValue(*f);
    }
    for (const Command &c : commands) {
        const std::string names =
            "|" + c.synopsis.substr(0, c.synopsis.find(' ')) + "|";
        if (!word.empty() && names.find("|" + word + "|") != names.npos)
            args.command = &c;
    }
    if (!word.empty() && !args.command)
        args.error = "unknown command '" + word + "'";

    for (int i = 1; i < argc && args.error.empty(); ++i) {
        const int first = i;
        const std::string arg = argv[i];
        const std::string name = arg.substr(0, arg.find('='));
        const Flag *flag = findFlag(globals, name);
        if (!flag && args.command)
            flag = findFlag(args.command->flags, name);
        if (!isFlag(arg)) {
            args.words.push_back(arg);
        } else if (!flag) {
            args.error = "unknown flag '" + arg + "'" +
                         (word.empty() ? "" : " for " + word);
        } else {
            const bool inlined = name.size() < arg.size();
            std::string value = inlined ? arg.substr(name.size() + 1) : "";
            if (takesValue(*flag) && !inlined && i + 1 == argc)
                args.error = arg + " needs a value";
            else if (takesValue(*flag) && !inlined)
                value = argv[++i];
            // A switch takes no value; an optional value is not empty.
            const bool fits = takesValue(*flag) || !inlined ||
                              (*flag->value && !value.empty());
            if (args.error.empty() && !(fits && flag->set(value)))
                args.error = "bad value '" + value + "' for " + name;
        }
        if (name != "--trace" && name != "--stats")
            args.workerArgs.insert(args.workerArgs.end(), argv + first,
                                   argv + i + 1);
    }
    return args;
}

std::string
usageText(const Flags &globals, const std::vector<Command> &commands)
{
    std::ostringstream out;
    auto list = [&out](const Flags &flags) {
        for (const Flag &f : flags) {
            const std::string lhs = std::string(f.name) +
                                    (takesValue(f) ? " " : "") + f.value;
            out << "  " << std::left << std::setw(30) << lhs << "  "
                << f.help << "\n";
        }
    };
    out << "usage: memoria <command> [arguments] [flags]\n"
           "\nflags of every command:\n";
    list(globals);
    for (const Command &c : commands) {
        out << "\nmemoria " << c.synopsis << "\n";
        list(c.flags);
    }
    out << "\nexit codes: 0 ok, 1 pipeline failure, 2 usage error\n";
    return out.str();
}

/** The one-shot commands: load <program> at size N, then run one. */
int
runProgram(const Args &args)
{
    if (args.words.size() < 2) {
        std::cerr << "missing program name; try `memoria list`\n";
        return 2;
    }
    std::optional<int64_t> n =
        args.words.size() > 2 ? parseInteger(args.words[2], 1, kMax64)
                              : 48;
    if (!n) {
        std::cerr << "memoria: size N wants a whole number > 0, not '"
                  << args.words[2] << "'\n";
        return 2;
    }
    Result<Program> resolved =
        harness::programInput(args.words[1], *n, *n).load();
    if (!resolved.ok())
        return failed(resolved.diag());
    Program prog = std::move(resolved.value());
    const std::string &cmd = args.words[0];
    if (cmd == "print") {
        std::cout << printProgram(prog);
        return 0;
    }
    // Batch and serve validate every program before the pipeline; an
    // invalid one (an element size the tape cannot hold, say) is the
    // input's fault, not a crash.
    if (std::vector<Diag> errs = validateProgram(prog); !errs.empty())
        return failed(errs.front());
    if (cmd == "analyze")
        return cmdAnalyze(std::move(prog));
    const OptimizedProgram opt = optimizeProgram(prog, ModelParams{});
    if (cmd == "optimize")
        return cmdOptimize(opt);
    if (cmd == "simulate")
        return cmdSimulate(opt);
    return cmd == "reuse" ? cmdReuse(opt) : cmdTrace(opt);
}

int
version()
{
    std::cout << versionLine() << "\n";
    return 0;
}

int
run(int argc, char **argv)
{
    Globals globals;
    FuzzCommand fuzz;
    BatchCommand batch;
    ServeCommand serve;
    TopCommand top;
    ReduceCommand reduce;
    BenchCommand bench;
    const std::vector<Command> commands = {
        {"list", {}, [](const Args &) { return cmdList(); }},
        {"version", {}, [](const Args &) { return version(); }},
        {"print|analyze|optimize|simulate|reuse|trace <program> [N]", {},
         runProgram},
        {"fuzz", fuzz.flags, [&](const Args &a) { return fuzz.run(a); }},
        {"batch [program...]", batch.flags,
         [&](const Args &a) { return batch.run(a); }},
        {"serve", serve.flags, [&](const Args &a) { return serve.run(a); }},
        {"top [[host:]port]", top.flags,
         [&](const Args &a) { return top.run(a); }},
        {"reduce <bundle-dir|file.mem>", reduce.flags,
         [&](const Args &a) { return reduce.run(a); }},
        {"bench", bench.flags, [&](const Args &a) { return bench.run(a); }},
    };

    const Args args = parseArgs(argc, argv, globals.flags, commands);
    if (!args.error.empty()) {
        std::cerr << "memoria: " << args.error
                  << "\n(see `memoria --help`)\n";
        return 2;
    }
    if (globals.help) {
        std::cout << usageText(globals.flags, commands);
        return 0;
    }
    if (globals.version)
        return version();
    if (!args.command) {
        std::cerr << usageText(globals.flags, commands);
        return 2;
    }
    const std::string &cmd = args.words[0];

    std::unique_ptr<obs::TraceSink> sink;
    if (!globals.traceFile.empty())
        sink = std::make_unique<obs::JsonLinesSink>(globals.traceFile);
    else if (globals.traceText)
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
        if (globals.statsText || globals.statsJson)
            signals::addFlushCallback([json = globals.statsJson] {
                if (json)
                    obs::statsRegistry().dumpJson(std::cerr);
                else
                    obs::statsRegistry().dumpText(std::cerr);
            });
    }

    const int rc = args.command->run(args);

    if (globals.statsJson)
        obs::statsRegistry().dumpJson(std::cout);
    else if (globals.statsText)
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
