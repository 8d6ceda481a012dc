#include "harness/batch.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "check/validate.hh"
#include "frontend/parser.hh"
#include "ir/printer.hh"
#include "harness/fault.hh"
#include "suite/corpus.hh"
#include "suite/kernels.hh"
#include "support/clock.hh"
#include "support/json.hh"
#include "support/stats.hh"
#include "support/trace.hh"
#include "transform/compound.hh"

namespace memoria {
namespace harness {

namespace {

/**
 * Thrown out of a ladder attempt for problems no rung can fix — the
 * *input* faults (e.g. the reference program goes out of bounds during
 * simulation). Deliberately not a std::exception subclass, so it flies
 * past runLadder's fault containment up to the per-program boundary,
 * which maps it to status Diag.
 */
struct InputError
{
    Diag diag;
};

/** JSON-valid double rendering (no inf/nan). */
std::string
jnum(double v)
{
    std::ostringstream os;
    os << v;
    std::string s = os.str();
    if (s == "inf" || s == "-inf" || s == "nan" || s == "-nan")
        return "0";
    return s;
}

/** Run the ladder over optimize + simulate; fills `out` on success. */
void
runPipeline(const Program &prog, const BatchOptions &opts,
            ProgramOutcome &out)
{
    LadderOptions lopts;
    lopts.budget = opts.budget;
    lopts.startRung = opts.startRung;
    lopts.backoffBaseMs = opts.backoffBaseMs;
    lopts.backoffCapMs = opts.backoffCapMs;

    std::vector<CacheConfig> cacheCfgs = opts.cacheConfigs;
    if (cacheCfgs.empty())
        cacheCfgs.push_back(CacheConfig::i860());

    LadderOutcome lr = runLadder(lopts, [&](AttemptContext &ctx) {
        out.simulated = false;
        out.sims.clear();
        out.nests.clear();

        OptimizedProgram attempt = [&] {
            // Verification runs nested inside Compound (verifyAgainst
            // accrues verifyUs under its own StageTimer), so subtract
            // the verify delta to keep the stages disjoint.
            const double verifyBefore = obs::stageTimes().verifyUs;
            obs::StageTimer stage(&obs::StageTimes::optimizeUs);
            OptimizedProgram r =
                optimizeProgram(prog, opts.params, ctx.pipeline);
            obs::stageTimes().optimizeUs -=
                obs::stageTimes().verifyUs - verifyBefore;
            return r;
        }();

        if (opts.simulate) {
            obs::StageTimer stage(&obs::StageTimes::simulateUs);
            // One interpreter pass per program version feeds every
            // configuration (cachesim/sweep.hh). The reference
            // faulting is an input problem — no rung can fix it, so
            // bypass the ladder entirely.
            Result<SweepResult> orig =
                tryRunWithCaches(attempt.original, cacheCfgs);
            if (!orig.ok())
                throw InputError{orig.diag()};
            Result<SweepResult> fin =
                tryRunWithCaches(attempt.transformed, cacheCfgs);
            if (!fin.ok())
                throw std::runtime_error(
                    "transformed program faulted in simulation: " +
                    fin.diag().str());

            out.simulated = true;
            for (size_t i = 0; i < cacheCfgs.size(); ++i) {
                const CacheStats &fc = fin.value().cache[i];
                fc.checkConsistent();
                ProgramOutcome::SimOutcome sim;
                sim.cache = cacheCfgs[i].name;
                sim.accesses = fc.accesses;
                sim.hits = fc.hits;
                sim.misses = fc.misses;
                sim.hitWarmOrig =
                    orig.value().cache[i].hitRateWarm();
                sim.hitWarmFinal = fc.hitRateWarm();
                out.sims.push_back(std::move(sim));
            }
            out.accesses = out.sims.front().accesses;
            out.hits = out.sims.front().hits;
            out.misses = out.sims.front().misses;
            out.hitWarmOrig = out.sims.front().hitWarmOrig;
            out.hitWarmFinal = out.sims.front().hitWarmFinal;

            // Validate the paper's cost model against the simulator:
            // ratioFinal predicts the miss reduction (LoopCost ~ cache
            // lines fetched), so the predicted final warm hit rate is
            // 100*(1 - m0/ratioFinal) from the measured original miss
            // rate m0. Identity-rung attempts are skipped — with no
            // transformation there is no prediction to validate.
            if (ctx.pipeline.transform &&
                attempt.report.ratioFinal > 0.0) {
                double m0 = 1.0 - out.hitWarmOrig / 100.0;
                double predicted =
                    100.0 * (1.0 - m0 / attempt.report.ratioFinal);
                double deltaPp = predicted - out.hitWarmFinal;
                obs::histogram("model.accuracy.hit_rate_delta_pp")
                    .sample(deltaPp);
                obs::histogram("model.accuracy.abs_hit_rate_delta_pp")
                    .sample(deltaPp < 0 ? -deltaPp : deltaPp);
            }
        }

        out.loops = attempt.compound.totalLoops;
        for (const NestReport &nr : attempt.compound.nests)
            out.nests.push_back(
                {nr.depth, nestStrategyName(nr), nr.rolledBack});
    });

    out.attempts = lr.attempts;
    out.failures = lr.failures;
    out.iterations = lr.iterationsUsed;
    out.maxIrNodes = lr.maxIrNodesSeen;
    out.backoffMs = lr.backoffMs;

    if (lr.ok) {
        out.rung = lr.rung;
        out.status = lr.failures.empty() && lr.rung == Rung::FullCompound
                         ? BatchStatus::Ok
                         : BatchStatus::Degraded;
    } else {
        const AttemptFailure &last = lr.failures.back();
        out.status = last.kind == "timeout" ? BatchStatus::Timeout
                                            : BatchStatus::PanicContained;
        out.diag = last.detail;
    }
}

const char *
statusCounterName(BatchStatus s)
{
    switch (s) {
      case BatchStatus::Ok:
        return "batch.ok";
      case BatchStatus::Degraded:
        return "batch.degraded";
      case BatchStatus::Diag:
        return "batch.diag";
      case BatchStatus::Timeout:
        return "batch.timeout";
      case BatchStatus::PanicContained:
        return "batch.panic_contained";
    }
    return "batch.unknown";
}

} // namespace

ProgramOutcome
runIsolated(const BatchInput &in, const BatchOptions &opts)
{
    ProgramOutcome out;
    out.name = in.name;
    const double t0 = steadyMsF();

    ProgramContext pctx(in.name);

    // Give the program a trace context when the caller (serve) did not
    // install one, so standalone batch spans are attributable too.
    // Everything below runs synchronously on this thread, so nested
    // Compound/oracle/cachesim spans inherit the id for free.
    std::optional<obs::TraceContextScope> traceCtx;
    if (obs::tracingEnabled() && obs::currentTraceContext().traceId.empty())
        traceCtx.emplace(obs::makeTraceId());

    obs::TraceScope span("batch", "program");
    span.arg("program", in.name);
    obs::ScopedTimer timer(
        obs::statsRegistry().histogram("batch.program_time_us"));

    // Fresh per-request stage accumulator (thread-local; workers run
    // one program at a time).
    obs::stageTimes().reset();

    try {
        // Loading and validation run under their own budget so a stall
        // or a pathological input cannot hang the worker.
        Result<Program> loaded = [&] {
            obs::StageTimer stage(&obs::StageTimes::loadUs);
            CancelToken token(opts.budget);
            BudgetScope scope(&token);
            return in.load();
        }();
        if (!loaded.ok()) {
            out.status = BatchStatus::Diag;
            out.diag = loaded.diag().str();
        } else {
            const Program &prog = loaded.value();
            if (opts.captureSource)
                out.source = printProgram(prog);
            std::vector<Diag> errs = [&] {
                obs::StageTimer stage(&obs::StageTimes::loadUs);
                CancelToken token(opts.budget);
                BudgetScope scope(&token);
                return validateProgram(prog);
            }();
            if (!errs.empty()) {
                out.status = BatchStatus::Diag;
                out.diag = errs.front().str();
            } else {
                runPipeline(prog, opts, out);
            }
        }
    } catch (const InputError &ie) {
        out.status = BatchStatus::Diag;
        out.diag = ie.diag.str();
    } catch (const CancelledError &c) {
        // Cancellation during load/validate (ladder attempts catch
        // their own).
        out.status = BatchStatus::Timeout;
        out.diag = c.str();
    } catch (const std::exception &e) {
        out.status = BatchStatus::PanicContained;
        out.diag = e.what();
    } catch (...) {
        out.status = BatchStatus::PanicContained;
        out.diag = "unknown exception";
    }

    out.faultHits = drainFaultHits();
    out.timeMs = steadyMsF() - t0;

    out.timings = obs::stageTimes();

    if (span.active()) {
        span.arg("status", batchStatusName(out.status));
        span.arg("rung", rungName(out.rung));
        span.arg("attempts", out.attempts);
    }
    return out;
}

const char *
batchStatusName(BatchStatus s)
{
    switch (s) {
      case BatchStatus::Ok:
        return "ok";
      case BatchStatus::Degraded:
        return "degraded";
      case BatchStatus::Diag:
        return "diag";
      case BatchStatus::Timeout:
        return "timeout";
      case BatchStatus::PanicContained:
        return "panic-contained";
    }
    return "?";
}

std::optional<BatchStatus>
batchStatusFromName(const std::string &name)
{
    for (BatchStatus s :
         {BatchStatus::Ok, BatchStatus::Degraded, BatchStatus::Diag,
          BatchStatus::Timeout, BatchStatus::PanicContained})
        if (name == batchStatusName(s))
            return s;
    return std::nullopt;
}

int
BatchReport::countWithStatus(BatchStatus s) const
{
    int n = 0;
    for (const ProgramOutcome &p : programs)
        if (p.status == s)
            ++n;
    return n;
}

int
BatchReport::containedCount() const
{
    int n = 0;
    for (const ProgramOutcome &p : programs)
        if (p.contained())
            ++n;
    return n;
}

std::string
BatchReport::toJson() const
{
    std::ostringstream os;
    os << "{\"programs\":[";
    bool firstProg = true;
    for (const ProgramOutcome &p : programs) {
        if (!firstProg)
            os << ",";
        firstProg = false;
        os << "{\"name\":" << json::quote(p.name)
           << ",\"status\":" << json::quote(batchStatusName(p.status))
           << ",\"rung\":" << json::quote(rungName(p.rung))
           << ",\"attempts\":" << p.attempts
           << ",\"time_ms\":" << jnum(p.timeMs)
           << ",\"iterations\":" << p.iterations
           << ",\"max_ir_nodes\":" << p.maxIrNodes
           << ",\"backoff_ms\":" << p.backoffMs << ",\"loops\":"
           << p.loops;
        os << ",\"stages\":{\"load_ms\":" << jnum(p.timings.loadUs / 1000)
           << ",\"optimize_ms\":" << jnum(p.timings.optimizeUs / 1000)
           << ",\"verify_ms\":" << jnum(p.timings.verifyUs / 1000)
           << ",\"simulate_ms\":" << jnum(p.timings.simulateUs / 1000)
           << "}";

        os << ",\"incidents\":[";
        bool first = true;
        for (const AttemptFailure &f : p.failures) {
            if (!first)
                os << ",";
            first = false;
            os << "{\"rung\":" << json::quote(rungName(f.rung))
               << ",\"kind\":" << json::quote(f.kind)
               << ",\"detail\":" << json::quote(f.detail) << "}";
        }
        os << "]";

        os << ",\"fault_hits\":{";
        first = true;
        for (const auto &[site, hitCount] : p.faultHits) {
            if (!first)
                os << ",";
            first = false;
            os << json::quote(site) << ":" << hitCount;
        }
        os << "}";

        os << ",\"nests\":[";
        first = true;
        for (const NestOutcome &n : p.nests) {
            if (!first)
                os << ",";
            first = false;
            os << "{\"depth\":" << n.depth
               << ",\"strategy\":" << json::quote(n.strategy)
               << ",\"rolled_back\":"
               << (n.rolledBack ? "true" : "false") << "}";
        }
        os << "]";

        if (!p.diag.empty())
            os << ",\"diag\":" << json::quote(p.diag);
        if (p.simulated) {
            os << ",\"sim\":{\"accesses\":" << p.accesses
               << ",\"hits\":" << p.hits << ",\"misses\":" << p.misses
               << ",\"hit_warm_orig\":" << jnum(p.hitWarmOrig)
               << ",\"hit_warm_final\":" << jnum(p.hitWarmFinal) << "}";
            os << ",\"sims\":[";
            first = true;
            for (const ProgramOutcome::SimOutcome &s : p.sims) {
                if (!first)
                    os << ",";
                first = false;
                os << "{\"cache\":" << json::quote(s.cache)
                   << ",\"accesses\":" << s.accesses
                   << ",\"hits\":" << s.hits
                   << ",\"misses\":" << s.misses
                   << ",\"hit_warm_orig\":" << jnum(s.hitWarmOrig)
                   << ",\"hit_warm_final\":" << jnum(s.hitWarmFinal)
                   << "}";
            }
            os << "]";
        }
        os << "}";
    }
    os << "],\"summary\":{\"total\":" << programs.size();
    for (BatchStatus s :
         {BatchStatus::Ok, BatchStatus::Degraded, BatchStatus::Diag,
          BatchStatus::Timeout, BatchStatus::PanicContained}) {
        std::string key = batchStatusName(s);
        std::replace(key.begin(), key.end(), '-', '_');
        os << "," << json::quote(key) << ":" << countWithStatus(s);
    }
    os << ",\"contained\":" << containedCount()
       << ",\"total_ms\":" << jnum(totalMs) << "}}";
    return os.str();
}

std::vector<BatchInput>
kernelInputs(int64_t n)
{
    std::vector<BatchInput> out;
    auto add = [&](const char *name, std::function<Program()> make) {
        out.push_back({name, [make = std::move(make)]() {
                           return Result<Program>(make());
                       }});
    };
    add("matmul-ijk", [n] { return makeMatmul("IJK", n); });
    add("matmul-ikj", [n] { return makeMatmul("IKJ", n); });
    add("matmul-jki", [n] { return makeMatmul("JKI", n); });
    add("cholesky", [n] { return makeCholeskyKIJ(n); });
    add("adi", [n] { return makeAdiScalarized(n); });
    add("erlebacher", [n] { return makeErlebacherDistributed(n); });
    add("gmtry", [n] { return makeGmtry(n); });
    add("simple", [n] { return makeSimpleHydro(n); });
    add("vpenta", [n] { return makeVpenta(n); });
    add("jacobi", [n] { return makeJacobiBadOrder(n); });
    return out;
}

std::vector<BatchInput>
corpusInputs(int64_t extent)
{
    std::vector<BatchInput> out;
    for (const CorpusSpec &spec : corpusSpecs()) {
        out.push_back({spec.name, [spec, extent]() {
                           return Result<Program>(
                               buildCorpusProgram(spec, extent));
                       }});
    }
    return out;
}

BatchInput
fileInput(const std::string &path)
{
    std::string name = std::filesystem::path(path).stem().string();
    if (name.empty())
        name = path;
    return {name, [path]() -> Result<Program> {
                std::ifstream in(path);
                if (!in) {
                    return Result<Program>::err(Diag::error(
                        "batch.read", "no program or readable file '" +
                                      path + "'; try `memoria list`"));
                }
                std::ostringstream buf;
                buf << in.rdbuf();
                ParseError err;
                std::optional<Program> prog =
                    parseProgram(buf.str(), &err);
                if (!prog) {
                    return Result<Program>::err(
                        Diag::error("parse.error",
                                    path + ": " + err.message, err.line,
                                    err.col));
                }
                return Result<Program>(std::move(*prog));
            }};
}

std::string
corpusInputName(const std::string &name)
{
    for (const BatchInput &k : kernelInputs())
        if (k.name == name)
            return "corpus/" + name;
    return name;
}

BatchInput
programInput(const std::string &name, int64_t kernelN,
             int64_t corpusExtent)
{
    for (BatchInput &k : kernelInputs(kernelN))
        if (k.name == name)
            return std::move(k);
    for (const CorpusSpec &spec : corpusSpecs()) {
        if (corpusInputName(spec.name) != name)
            continue;
        // Corpus programs need extent >= 8 to exercise their nests.
        if (corpusExtent < 8) {
            warn("corpus program '" + spec.name + "': requested size " +
                 std::to_string(corpusExtent) + " clamped to 8");
            corpusExtent = 8;
        }
        return {name, [spec, corpusExtent]() {
                    return Result<Program>(
                        buildCorpusProgram(spec, corpusExtent));
                }};
    }
    return fileInput(name);
}

BatchInput
namedInput(std::string name, std::string source)
{
    return {std::move(name),
            [source = std::move(source)]() -> Result<Program> {
                ParseError err;
                std::optional<Program> prog = parseProgram(source, &err);
                if (!prog) {
                    return Result<Program>::err(Diag::error(
                        "parse.error", err.message, err.line, err.col));
                }
                return Result<Program>(std::move(*prog));
            }};
}

std::vector<BatchInput>
directoryInputs(const std::string &dir)
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".mem")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    std::vector<BatchInput> out;
    for (const std::string &p : paths)
        out.push_back(fileInput(p));
    return out;
}

BatchReport
runBatch(const std::vector<BatchInput> &inputs, const BatchOptions &opts)
{
    BatchReport report;
    report.programs.resize(inputs.size());
    const double t0 = steadyMsF();

    obs::TraceScope span("batch", "run");
    span.arg("programs", static_cast<int64_t>(inputs.size()));
    span.arg("jobs", opts.jobs);

    setFaultAccounting(true);

    std::atomic<size_t> next{0};
    auto work = [&]() {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= inputs.size())
                break;
            try {
                report.programs[i] = runIsolated(inputs[i], opts);
            } catch (...) {
                // runIsolated contains everything; this is the last-ditch
                // belt so a bug in the harness itself cannot kill the
                // pool either.
                report.programs[i] = ProgramOutcome{};
                report.programs[i].name = inputs[i].name;
                report.programs[i].status = BatchStatus::PanicContained;
                report.programs[i].diag =
                    "exception escaped program isolation";
            }
        }
    };

    int jobs = std::max(
        1, std::min<int>(opts.jobs,
                         static_cast<int>(std::max<size_t>(
                             inputs.size(), 1))));
    std::vector<std::thread> pool;
    for (int j = 1; j < jobs; ++j)
        pool.emplace_back(work);
    work();
    for (std::thread &t : pool)
        t.join();

    setFaultAccounting(false);

    report.totalMs = steadyMsF() - t0;
    obs::counter("batch.programs") += inputs.size();
    for (const ProgramOutcome &p : report.programs) {
        ++obs::counter(statusCounterName(p.status));
        obs::counter("batch.attempts") +=
            static_cast<uint64_t>(std::max(p.attempts, 0));
    }
    if (span.active()) {
        span.arg("ok", report.countWithStatus(BatchStatus::Ok));
        span.arg("contained", report.containedCount());
    }
    return report;
}

} // namespace harness
} // namespace memoria
