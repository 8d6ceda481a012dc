#include "perf/bench.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>

#include "check/equiv.hh"
#include "check/validate.hh"
#include "driver/memoria.hh"
#include "frontend/parser.hh"
#include "harness/batch.hh"
#include "interp/interp.hh"
#include "ir/printer.hh"
#include "suite/corpus.hh"
#include "suite/kernels.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/table.hh"
#include "support/trace.hh"
#include "support/version.hh"

namespace memoria {
namespace perf {

namespace {

/** Work counters one benchmark fills; ordered for stable JSON. */
using Counters = std::map<std::string, uint64_t>;

/** One registered benchmark: a per-repetition body. The body runs the
 *  full workload every call; counters from the last repetition are
 *  reported (they are deterministic, so every repetition agrees). */
struct Bench
{
    std::string name;
    std::function<void(Counters &)> body;
};

double
elapsedMs(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** The programs the parse/validate benchmarks iterate: every kernel
 *  plus the 35-program corpus, as source text. */
std::vector<std::string>
benchSources()
{
    std::vector<std::string> sources;
    sources.push_back(printProgram(makeMatmul("IJK", 24)));
    sources.push_back(printProgram(makeMatmul("JKI", 24)));
    sources.push_back(printProgram(makeCholeskyKIJ(24)));
    sources.push_back(printProgram(makeAdiScalarized(24)));
    sources.push_back(printProgram(makeErlebacherDistributed(24)));
    sources.push_back(printProgram(makeGmtry(24)));
    sources.push_back(printProgram(makeSimpleHydro(24)));
    sources.push_back(printProgram(makeVpenta(24)));
    sources.push_back(printProgram(makeJacobiBadOrder(24)));
    for (const CorpusSpec &spec : corpusSpecs())
        sources.push_back(printProgram(buildCorpusProgram(spec, 12)));
    return sources;
}

std::vector<Program>
benchPrograms()
{
    std::vector<Program> progs;
    for (const std::string &src : benchSources()) {
        auto p = parseProgram(src);
        MEMORIA_ASSERT(p.has_value(), "bench source does not parse");
        progs.push_back(std::move(*p));
    }
    return progs;
}

/** The registered suite, in execution order. */
std::vector<Bench>
benchSuite()
{
    std::vector<Bench> suite;

    suite.push_back({"parse", [](Counters &c) {
        static const std::vector<std::string> sources = benchSources();
        uint64_t programs = 0;
        for (const std::string &src : sources) {
            auto p = parseProgram(src);
            MEMORIA_ASSERT(p.has_value(), "bench source does not parse");
            ++programs;
        }
        c["programs"] = programs;
    }});

    suite.push_back({"validate", [](Counters &c) {
        static const std::vector<Program> progs = benchPrograms();
        uint64_t diags = 0;
        for (const Program &p : progs)
            diags += validateProgram(p).size();
        c["programs"] = progs.size();
        c["diags"] = diags;
    }});

    suite.push_back({"compound", [](Counters &c) {
        static const std::vector<Program> progs = [] {
            std::vector<Program> v;
            v.push_back(makeMatmul("IJK", 24));
            v.push_back(makeMatmul("JKI", 24));
            v.push_back(makeCholeskyKIJ(24));
            v.push_back(makeAdiScalarized(24));
            v.push_back(makeErlebacherDistributed(24));
            v.push_back(makeJacobiBadOrder(24));
            return v;
        }();
        ModelParams params;
        PipelineOptions popts;
        popts.computeIdeal = false;
        uint64_t nests = 0, changed = 0;
        for (const Program &p : progs) {
            OptimizedProgram opt = optimizeProgram(p, params, popts);
            nests += static_cast<uint64_t>(opt.report.nests);
            changed += opt.anyChanged ? 1 : 0;
        }
        c["programs"] = progs.size();
        c["nests"] = nests;
        c["changed"] = changed;
    }});

    suite.push_back({"oracle", [](Counters &c) {
        static const std::vector<std::pair<Program, Program>> pairs =
            [] {
                ModelParams params;
                PipelineOptions popts;
                popts.computeIdeal = false;
                popts.compound.verify = false;
                std::vector<Program> inputs;
                inputs.push_back(makeMatmul("JKI", 16));
                inputs.push_back(makeJacobiBadOrder(16));
                std::vector<std::pair<Program, Program>> v;
                for (const Program &p : inputs) {
                    OptimizedProgram opt =
                        optimizeProgram(p, params, popts);
                    v.emplace_back(std::move(opt.original),
                                   std::move(opt.transformed));
                }
                return v;
            }();
        uint64_t compared = 0, equivalent = 0;
        for (const auto &[ref, cand] : pairs) {
            EquivResult r = checkEquivalence(ref, cand);
            compared += static_cast<uint64_t>(r.comparedRuns);
            equivalent += r.equivalent ? 1 : 0;
        }
        c["pairs"] = pairs.size();
        c["compared_runs"] = compared;
        c["equivalent"] = equivalent;
    }});

    suite.push_back({"simulate", [](Counters &c) {
        static const Program prog = makeMatmul("IKJ", 32);
        RunResult r = runWithCache(prog, CacheConfig::i860());
        c["accesses"] = r.cache.accesses;
        c["iterations"] = r.exec.loopIterations;
        c["interp_passes"] = 1;
    }});

    suite.push_back({"simulate_sweep", [](Counters &c) {
        static const Program prog = makeMatmul("IKJ", 32);
        static obs::Counter &cRuns = obs::counter("interp.runs");
        // The sweep's whole point: N configs, ONE interpreter pass.
        // Report the pass count straight from the obs registry so a
        // regression to per-config execution trips the CI gate.
        uint64_t runsBefore = cRuns.value();
        SweepResult r = runWithCaches(
            prog, {CacheConfig::rs6000(), CacheConfig::i860()});
        c["configs"] = r.cache.size();
        c["accesses"] = r.cache.front().accesses;
        c["iterations"] = r.exec.loopIterations;
        c["interp_passes"] = cRuns.value() - runsBefore;
    }});

    suite.push_back({"reuse_sweep", [](Counters &c) {
        static const Program prog = makeMatmul("IKJ", 32);
        SweepReuseOptions ropts;
        ropts.enabled = true;
        ropts.lineBytes = 32;
        MultiCacheSim sim({CacheConfig::i860()}, ropts);
        Interpreter interp(prog);
        Status st = interp.run(&sim);
        MEMORIA_ASSERT(st.ok(), "bench kernel faulted");
        c["accesses"] = sim.stats(0).accesses;
        c["reuse_warm"] = sim.reuse()->warmAccesses();
        c["reuse_cold"] = sim.reuse()->coldAccesses();
    }});

    suite.push_back({"batch_corpus", [](Counters &c) {
        static obs::Counter &cRuns = obs::counter("interp.runs");
        harness::BatchOptions bopts;
        bopts.jobs = 2;
        bopts.cacheConfigs = {CacheConfig::rs6000(),
                              CacheConfig::i860()};
        uint64_t runsBefore = cRuns.value();
        harness::BatchReport rep =
            harness::runBatch(harness::corpusInputs(10), bopts);
        uint64_t accesses = 0, iterations = 0;
        for (const harness::ProgramOutcome &p : rep.programs) {
            accesses += p.accesses;
            iterations += p.iterations;
        }
        c["programs"] = rep.programs.size();
        c["ok"] =
            static_cast<uint64_t>(rep.countWithStatus(
                harness::BatchStatus::Ok));
        c["accesses"] = accesses;
        c["iterations"] = iterations;
        c["interp_passes"] = cRuns.value() - runsBefore;
    }});

    return suite;
}

std::string
jstr(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    out += "\"";
    return out;
}

std::string
jnum(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os << v;
    return os.str();
}

BenchTimings
summarize(std::vector<double> times)
{
    BenchTimings t;
    if (times.empty())
        return t;
    std::sort(times.begin(), times.end());
    size_t n = times.size();
    t.minMs = times.front();
    t.medianMs = n % 2 ? times[n / 2]
                       : 0.5 * (times[n / 2 - 1] + times[n / 2]);
    size_t p90 = static_cast<size_t>(std::ceil(0.9 * n));
    t.p90Ms = times[std::min(p90 ? p90 - 1 : 0, n - 1)];
    double sum = 0.0;
    for (double x : times)
        sum += x;
    t.meanMs = sum / n;
    return t;
}

} // namespace

std::vector<std::string>
benchNames()
{
    std::vector<std::string> names;
    for (const Bench &b : benchSuite())
        names.push_back(b.name);
    return names;
}

BenchReport
runBenchSuite(const BenchOptions &opts)
{
    const BuildInfo &info = buildInfo();
    BenchReport report;
    report.version = info.version;
    report.gitHash = info.gitHash;
    report.buildType = info.buildType;
    report.sanitizers = info.sanitizers;
    report.reps = std::max(opts.reps, 1);
    report.warmup = std::max(opts.warmup, 0);

    for (const Bench &b : benchSuite()) {
        if (!opts.filter.empty() &&
            b.name.find(opts.filter) == std::string::npos)
            continue;
        obs::TraceScope span("perf", "bench");
        span.arg("name", b.name);

        Counters counters;
        for (int i = 0; i < report.warmup; ++i)
            b.body(counters);

        std::vector<double> times;
        times.reserve(report.reps);
        for (int i = 0; i < report.reps; ++i) {
            counters.clear();
            auto t0 = std::chrono::steady_clock::now();
            b.body(counters);
            times.push_back(elapsedMs(t0));
        }

        BenchResult r;
        r.name = b.name;
        r.reps = report.reps;
        r.warmup = report.warmup;
        r.wall = summarize(std::move(times));
        for (const auto &[k, v] : counters)
            r.counters.emplace_back(k, v);
        auto acc = counters.find("accesses");
        if (acc != counters.end() && acc->second > 0)
            r.nsPerAccess = r.wall.medianMs * 1e6 /
                            static_cast<double>(acc->second);
        if (opts.publishGauges) {
            obs::gauge("perf." + b.name + ".median_ms")
                .set(r.wall.medianMs);
            obs::gauge("perf." + b.name + ".p90_ms").set(r.wall.p90Ms);
        }
        if (span.active())
            span.arg("median_ms", r.wall.medianMs);
        report.results.push_back(std::move(r));
    }
    return report;
}

std::string
BenchReport::toJson() const
{
    std::ostringstream os;
    os << "{\"schema\":" << jstr(schema)
       << ",\"version\":" << jstr(version)
       << ",\"git_hash\":" << jstr(gitHash)
       << ",\"build_type\":" << jstr(buildType)
       << ",\"sanitizers\":" << (sanitizers ? "true" : "false")
       << ",\"reps\":" << reps << ",\"warmup\":" << warmup
       << ",\"benchmarks\":[";
    bool first = true;
    for (const BenchResult &r : results) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":" << jstr(r.name) << ",\"reps\":" << r.reps
           << ",\"warmup\":" << r.warmup << ",\"wall_ms\":{\"median\":"
           << jnum(r.wall.medianMs) << ",\"p90\":" << jnum(r.wall.p90Ms)
           << ",\"min\":" << jnum(r.wall.minMs)
           << ",\"mean\":" << jnum(r.wall.meanMs) << "}"
           << ",\"counters\":{";
        bool cfirst = true;
        for (const auto &[k, v] : r.counters) {
            if (!cfirst)
                os << ",";
            cfirst = false;
            os << jstr(k) << ":" << v;
        }
        os << "}";
        // Additive derived block: absent when the benchmark has no
        // accesses counter, so older consumers keep parsing.
        if (r.nsPerAccess > 0.0)
            os << ",\"derived\":{\"ns_per_access\":"
               << jnum(r.nsPerAccess) << "}";
        os << "}";
    }
    os << "]}";
    return os.str();
}

std::string
BenchReport::toText() const
{
    TextTable t({"benchmark", "median ms", "p90 ms", "min ms",
                 "work counters"});
    for (const BenchResult &r : results) {
        std::string work;
        for (const auto &[k, v] : r.counters) {
            if (!work.empty())
                work += "  ";
            work += k + "=" + std::to_string(v);
        }
        if (r.nsPerAccess > 0.0)
            work += "  ns/access=" + TextTable::num(r.nsPerAccess, 2);
        t.addRow({r.name, TextTable::num(r.wall.medianMs, 3),
                  TextTable::num(r.wall.p90Ms, 3),
                  TextTable::num(r.wall.minMs, 3), work});
    }
    std::ostringstream os;
    os << t.str() << "bench: " << results.size() << " benchmarks, "
       << reps << " reps + " << warmup << " warmup each ("
       << buildType << (sanitizers ? ", sanitizers" : "") << ")\n";
    return os.str();
}

} // namespace perf
} // namespace memoria
