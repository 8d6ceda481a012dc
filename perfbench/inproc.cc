/**
 * @file
 * In-process workload driver for the benchmark (perfbench/run.py builds
 * and runs it; see perfbench/README.md).
 *
 * Modes:
 *
 *   --workload W --seed S --setup-only
 *       Build the workload's inputs, print "ready N" and exit. run.py
 *       times launch-to-ready several times and reports the median as
 *       setup_s.
 *
 *   --workload W --seed S --seconds T --trace 0|1 [--spans FILE]
 *       Build the inputs, print "ready N", run the untimed check pass,
 *       then repeat whole passes over the inputs until T seconds have
 *       elapsed, check every op's outcome, and print one JSON line with
 *       the end-to-end metrics, the per-layer metrics, the exact work
 *       counters and the check tally. With --trace 1, odd passes are
 *       traced (benchmark spans around the public calls) and even
 *       passes are not, so the same run measures the tracing overhead.
 *
 *   --serve-inputs --seed S
 *       Stream the serve_mixed request programs as JSON lines, the hot
 *       set first, then unique programs until the reader goes away.
 *
 *   --serve-expect --seed S
 *       Recompute in process, for the hot set and the first walk over
 *       the program pool, what the server must answer (runIsolated with
 *       the server's per-kind options) and what the check pass finds,
 *       and print it as JSON lines.
 *
 * W is corpus_compile or kernel_simulate. Inputs are a pure function of
 * the seed; the library only ever sees the generated program text.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cachesim/cache.hh"
#include "check/equiv.hh"
#include "check/fuzz.hh"
#include "check/validate.hh"
#include "frontend/parser.hh"
#include "harness/batch.hh"
#include "interp/interp.hh"
#include "ir/printer.hh"
#include "ir/walk.hh"
#include "model/loopcost.hh"
#include "serve/server.hh"
#include "support/json.hh"
#include "support/stats.hh"
#include "suite/corpus.hh"
#include "suite/kernels.hh"
#include "transform/compound.hh"

namespace {

using namespace memoria;
using Clock = std::chrono::steady_clock;
using json::Value;

double
usSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/** splitmix64: a tiny seeded generator, so inputs depend on the seed
 *  alone and not on the standard library's distributions. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }

    /** Uniform integer in [lo, hi]. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(next() %
                                         static_cast<uint64_t>(hi - lo + 1));
    }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[next() % i]);
    }

  private:
    uint64_t state_;
};

struct Input
{
    std::string name;
    std::string kind;  ///< serve request kind (serve inputs only)
    std::string source;
};

/** An input's text is in printer-canonical form: the printer reaches
 *  its fixpoint after one parse, so print(parse(text)) == text holds
 *  and the check pass can assert it. */
Input
makeInput(std::string name, Program prog, std::string kind = "")
{
    prog.name = name;
    std::string text = printProgram(prog);
    if (std::optional<Program> reparsed = parseProgram(text))
        text = printProgram(*reparsed);
    return {std::move(name), std::move(kind), std::move(text)};
}

// ---------------------------------------------------------------------
// Workload inputs.

/** corpus_compile: the 35 corpus analogues, each at the same four
 *  extents, plus seeded fuzz programs, in a seeded order. The corpus is
 *  a fixed suite, as in the paper, so every seed compiles the same
 *  corpus and the cost mix (and with it throughput, the percentiles and
 *  peak memory) does not swing with the draw; the fuzz programs add
 *  shapes the corpus generator does not produce. */
constexpr int64_t kCorpusExtents[] = {12, 14, 16, 18};
constexpr int kCorpusFuzzPrograms = 24;

std::vector<Input>
corpusCompileInputs(uint64_t seed)
{
    Rng rng(seed);
    std::vector<Input> out;
    for (const CorpusSpec &spec : corpusSpecs())
        for (int64_t extent : kCorpusExtents)
            out.push_back(makeInput(spec.name + "_e" + std::to_string(extent),
                                    buildCorpusProgram(spec, extent)));
    for (int i = 0; i < kCorpusFuzzPrograms; ++i)
        out.push_back(makeInput("fuzz" + std::to_string(i),
                                fuzzProgram(rng.next())));
    rng.shuffle(out);
    return out;
}

/** One uniform draw in each of `n` equal slices of [lo, hi]. */
std::vector<int64_t>
stratified(Rng &rng, int64_t lo, int64_t hi, int n)
{
    std::vector<int64_t> out;
    const double width = static_cast<double>(hi - lo);
    for (int j = 0; j < n; ++j)
        out.push_back(lo + std::llround((j + rng.uniform()) / n * width));
    return out;
}

/** kernel_simulate: the paper's kernels at kKernelSizes sizes each,
 *  stratified over a continuous range sized so that simulation dominates
 *  and no op runs much past 25 ms. The continuous sizes keep the
 *  percentiles off gaps between cost clusters. */
struct KernelSpec
{
    const char *name;
    std::function<Program(int64_t)> build;
    int64_t lo;
    int64_t hi;
};

constexpr int kKernelSizes = 24;

std::vector<Input>
kernelSimulateInputs(uint64_t seed)
{
    const std::vector<KernelSpec> kernels = {
        {"matmul_ijk", [](int64_t n) { return makeMatmul("IJK", n); }, 16,
         44},
        {"matmul_ikj", [](int64_t n) { return makeMatmul("IKJ", n); }, 16,
         44},
        {"matmul_jki", [](int64_t n) { return makeMatmul("JKI", n); }, 16,
         44},
        {"cholesky", makeCholeskyKIJ, 24, 80},
        {"adi", makeAdiScalarized, 48, 144},
        {"erlebacher", makeErlebacherDistributed, 10, 26},
        {"gmtry", makeGmtry, 24, 64},
        {"simple", makeSimpleHydro, 48, 160},
        {"vpenta", makeVpenta, 48, 144},
        {"jacobi", makeJacobiBadOrder, 48, 160},
    };
    Rng rng(seed);
    std::vector<Input> out;
    for (const KernelSpec &k : kernels)
        for (int64_t n : stratified(rng, k.lo, k.hi, kKernelSizes))
            out.push_back(makeInput(
                std::string(k.name) + "_n" + std::to_string(n), k.build(n)));
    rng.shuffle(out);
    return out;
}

/** serve_mixed: a small hot set (requested repeatedly, so answered from
 *  the result cache) and an endless stream of unique requests (always
 *  computed). Program shapes come from a fixed pool of fuzz programs;
 *  the seed picks the hot set, the order in which the uniques walk the
 *  pool (a fresh permutation per cycle) and each request's size
 *  parameter, and names every request apart, so no unique request
 *  repeats a cache key. Every seed thus serves the same population, as
 *  corpus_compile compiles the same corpus. A pool shape's kind is
 *  fixed by its index, so the three kinds come in equal shares, as the
 *  steady mode of scripts/serve_soak.py cycles them. The hot set holds
 *  compound and simulate requests only: the cache keeps full-compound
 *  results, and analyze answers on the identity rung. */
constexpr int kServeHot = 8;
constexpr uint32_t kServePool = 120;
constexpr uint64_t kServePoolSeed = 0x5e7e;

class ServeInputs
{
  public:
    explicit ServeInputs(uint64_t seed) : rng_(seed) {}

    /** Input `index()`: the hot set first, then unique requests. */
    Input
    next()
    {
        const int i = index_++;
        if (i < kServeHot)
            return program(static_cast<uint32_t>(rng_.next() % kServePool),
                           "hot" + std::to_string(i),
                           i % 2 ? "simulate" : "compound");
        if (pos_ == order_.size()) {
            order_.resize(kServePool);
            for (uint32_t k = 0; k < kServePool; ++k)
                order_[k] = k;
            rng_.shuffle(order_);
            pos_ = 0;
        }
        const uint32_t shape = order_[pos_++];
        const char *const kinds[] = {"analyze", "compound", "simulate"};
        return program(shape, "u" + std::to_string(i - kServeHot),
                       kinds[shape % 3]);
    }

    int index() const { return index_; }

  private:
    Input
    program(uint32_t shape, const std::string &name, const char *kind)
    {
        Rng pool(kServePoolSeed + shape);
        FuzzOptions opts;
        opts.maxNests = static_cast<int>(pool.range(4, 8));
        opts.maxArrays = 4;
        opts.paramValue = rng_.range(24, 40);
        return makeInput(name, fuzzProgram(pool.next(), opts), kind);
    }

    Rng rng_;
    int index_ = 0;
    std::vector<uint32_t> order_;
    size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Check pass: everything the timed ops must reproduce, computed through
// the public layer calls one at a time.

/** The two cache configurations of the paper's Table 4; i860 first, as
 *  in the batch driver's default. */
std::vector<CacheConfig>
paperCaches()
{
    return {CacheConfig::i860(), CacheConfig::rs6000()};
}

const char *const kCacheNames[] = {"i860", "rs6000"};

struct SimCounts
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;

    bool
    operator==(const SimCounts &o) const
    {
        return accesses == o.accesses && hits == o.hits &&
               misses == o.misses;
    }
};

/** Per-nest decisions (strategy, rolled back), as harness::NestOutcome
 *  reports them, folded in program order into an FNV-1a digest. A timed
 *  op keeps only the digest, so a run's records do not grow its peak
 *  memory by a list per op. */
constexpr uint64_t kDecisionsEmpty = 0xcbf29ce484222325ULL;

uint64_t
addDecision(uint64_t digest, const std::string &strategy, bool rolledBack)
{
    for (const char c : strategy + (rolledBack ? "/rolled-back;" : ";"))
        digest = (digest ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
    return digest;
}

struct Expected
{
    int nests = 0;
    int nestsMemoryOrder = 0;
    uint64_t decisions = kDecisionsEmpty;
    uint64_t origAccesses = 0;    ///< access stream length, original
    uint64_t finalAccesses = 0;   ///< access stream length, transformed
    std::vector<SimCounts> final; ///< per cache config, transformed
    double cyclesOrig = 0.0;      ///< i860 model cycles
    double cyclesFinal = 0.0;

    /** i860 model cycles of a transformed program that misses `misses`
     *  times: the model is linear in the miss count, so a timed op's
     *  own miss count gives its cycles (interp/interp.hh MachineModel). */
    double
    cyclesFinalWith(uint64_t misses) const
    {
        const double penalty = MachineModel{}.missPenalty;
        return cyclesFinal +
               penalty * (static_cast<double>(misses) -
                          static_cast<double>(final[0].misses));
    }
};

/** Failed checks: counted against attempts, first messages kept. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> messages;

    /** Count one checked unit; `problems` empty means it passed. */
    void
    record(const std::vector<std::string> &problems)
    {
        ++attempted;
        if (problems.empty())
            return;
        ++failed;
        for (const std::string &p : problems)
            if (messages.size() < 20)
                messages.push_back(p);
    }
};

std::optional<Program>
parseInput(const Input &in, std::vector<std::string> &problems)
{
    ParseError err;
    std::optional<Program> prog = parseProgram(in.source, &err);
    if (!prog)
        problems.push_back(in.name + ": parse failed: " + err.str());
    return prog;
}

/**
 * Transform, simulate and check one program: the parse round-trips, the
 * input and the output validate, the transformed program is equivalent
 * to the original (oracle over the whole program) and has the same
 * checksum, and every cache's hits+misses equals its accesses.
 */
Expected
checkProgram(const Input &in, std::vector<std::string> &problems)
{
    const std::vector<CacheConfig> caches = paperCaches();
    Expected e;
    e.final.resize(caches.size());
    std::optional<Program> parsed = parseInput(in, problems);
    if (!parsed)
        return e;
    const Program &orig = *parsed;
    const std::string where = in.name + ": ";
    if (printProgram(orig) != in.source)
        problems.push_back(where + "print(parse(text)) != text");
    if (!validateProgram(orig).empty())
        problems.push_back(where + "input does not validate");

    Program fin = orig.clone();
    CompoundResult cr = compoundTransform(fin, ModelParams{},
                                          CompoundOptions{});
    e.nests = static_cast<int>(cr.nests.size());
    for (const NestReport &nr : cr.nests) {
        e.nestsMemoryOrder += nr.finalMemoryOrder ? 1 : 0;
        e.decisions =
            addDecision(e.decisions, nestStrategyName(nr), nr.rolledBack);
    }
    if (!validateProgram(fin).empty())
        problems.push_back(where + "transformed program does not validate");
    EquivResult eq = checkEquivalence(orig, fin);
    if (!eq.equivalent)
        problems.push_back(where + "not equivalent: " + eq.detail);
    if (runChecksum(orig) != runChecksum(fin))
        problems.push_back(where + "checksum differs after transform");

    SweepResult so = runWithCaches(orig, caches);
    SweepResult sf = runWithCaches(fin, caches);
    for (size_t c = 0; c < caches.size(); ++c) {
        for (const CacheStats *cs : {&so.cache[c], &sf.cache[c]})
            if (cs->hits + cs->misses != cs->accesses)
                problems.push_back(where + "hits+misses != accesses on " +
                                   caches[c].name);
        e.final[c] = {sf.cache[c].accesses, sf.cache[c].hits,
                      sf.cache[c].misses};
    }
    e.origAccesses = so.cache[0].accesses;
    e.finalAccesses = sf.cache[0].accesses;
    e.cyclesOrig = so.cycles[0];
    e.cyclesFinal = sf.cycles[0];
    if (so.checksum != sf.checksum)
        problems.push_back(where + "simulated checksum differs");
    return e;
}

// ---------------------------------------------------------------------
// Library counters read around passes (existing obs counters only).

struct Counters
{
    uint64_t equivChecks = 0;
    uint64_t equivRuns = 0;
    uint64_t interpRuns = 0;
    uint64_t sweepRuns = 0;
    uint64_t memoHits = 0;
    uint64_t memoMisses = 0;
    uint64_t spatialScans = 0;
    uint64_t permuteCandidates = 0;
    uint64_t compoundNests = 0;        ///< nests Compound finished
    uint64_t compoundAlreadyOrder = 0; ///< ... in memory order before
    uint64_t compoundPermuted = 0;     ///< ... brought into memory order

    Counters
    operator-(const Counters &o) const
    {
        return {equivChecks - o.equivChecks,
                equivRuns - o.equivRuns,
                interpRuns - o.interpRuns,
                sweepRuns - o.sweepRuns,
                memoHits - o.memoHits,
                memoMisses - o.memoMisses,
                spatialScans - o.spatialScans,
                permuteCandidates - o.permuteCandidates,
                compoundNests - o.compoundNests,
                compoundAlreadyOrder - o.compoundAlreadyOrder,
                compoundPermuted - o.compoundPermuted};
    }

    /** Nests in memory order after Compound (Table 2). */
    uint64_t memoryOrderNests() const
    {
        return compoundAlreadyOrder + compoundPermuted;
    }

    Counters &
    operator+=(const Counters &o)
    {
        equivChecks += o.equivChecks;
        equivRuns += o.equivRuns;
        interpRuns += o.interpRuns;
        sweepRuns += o.sweepRuns;
        memoHits += o.memoHits;
        memoMisses += o.memoMisses;
        spatialScans += o.spatialScans;
        permuteCandidates += o.permuteCandidates;
        compoundNests += o.compoundNests;
        compoundAlreadyOrder += o.compoundAlreadyOrder;
        compoundPermuted += o.compoundPermuted;
        return *this;
    }
};

Counters
readCounters()
{
    static obs::Counter &checks = obs::counter("check.equiv.checks");
    static obs::Counter &equivRuns = obs::counter("check.equiv.runs");
    static obs::Counter &runs = obs::counter("interp.runs");
    static obs::Counter &sweeps = obs::counter("interp.sweep_runs");
    static obs::Counter &hits = obs::counter("dependence.memo.hits");
    static obs::Counter &misses = obs::counter("dependence.memo.misses");
    static obs::Counter &scans = obs::counter("model.refgroup.spatial_scans");
    static obs::Counter &cands =
        obs::counter("pass.permute.candidates_considered");
    static obs::Counter &nests = obs::counter("pass.compound.nests_total");
    static obs::Counter &already =
        obs::counter("pass.compound.nests_already_in_memory_order");
    static obs::Counter &permuted =
        obs::counter("pass.compound.nests_permuted");
    return {checks.value(), equivRuns.value(), runs.value(),
            sweeps.value(), hits.value(),      misses.value(),
            scans.value(),  cands.value(),     nests.value(),
            already.value(), permuted.value()};
}

// ---------------------------------------------------------------------
// Benchmark spans: kept in memory, written out after the run.

struct Span
{
    uint32_t id = 0;
    uint32_t parent = 0;
    uint32_t op = 0;
    const char *name = "";
    double startUs = 0.0;
    double endUs = 0.0;
};

class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

    uint32_t
    begin(const char *name, uint32_t parent, uint32_t op)
    {
        Span s;
        s.id = static_cast<uint32_t>(spans_.size() + 1);
        s.parent = parent;
        s.op = op;
        s.name = name;
        s.startUs = usSince(epoch_);
        spans_.push_back(s);
        return s.id;
    }

    /** Close span `id`; returns its duration in microseconds. */
    double
    end(uint32_t id)
    {
        Span &s = spans_[id - 1];
        s.endUs = usSince(epoch_);
        return s.endUs - s.startUs;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        for (const Span &s : spans_) {
            Value v = Value::object();
            v.set("id", Value::number(static_cast<int64_t>(s.id)));
            v.set("parent", Value::number(static_cast<int64_t>(s.parent)));
            v.set("op", Value::number(static_cast<int64_t>(s.op)));
            v.set("name", Value::string(s.name));
            v.set("start_us", Value::number(s.startUs));
            v.set("end_us", Value::number(s.endUs));
            out << v.dump() << "\n";
        }
    }

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// The timed phase.

/** What one op reported, kept for the post-phase checks. */
struct OpRecord
{
    uint32_t input = 0;
    bool traced = false;
    double ms = 0.0;
    double parseUs = 0.0;
    harness::ProgramOutcome::StageTimings timings;
    harness::BatchStatus status = harness::BatchStatus::Ok;
    harness::Rung rung = harness::Rung::FullCompound;
    int attempts = 0;
    int nests = 0;
    int changed = 0;
    uint64_t decisions = kDecisionsEmpty;
    std::vector<SimCounts> sims;
};

/** Exact work of one whole pass over the inputs. */
struct PassWork
{
    Counters counters;
    uint64_t attempts = 0;
    uint64_t changed = 0;
    std::vector<SimCounts> sims;

    /** The counters that must repeat exactly (the dependence memo is
     *  a bounded cache whose hits depend on history, so it is left
     *  out). */
    bool
    sameWork(const PassWork &o) const
    {
        const Counters &a = counters, &b = o.counters;
        return a.equivChecks == b.equivChecks && a.equivRuns == b.equivRuns &&
               a.interpRuns == b.interpRuns && a.sweepRuns == b.sweepRuns &&
               a.spatialScans == b.spatialScans &&
               a.permuteCandidates == b.permuteCandidates &&
               a.compoundNests == b.compoundNests &&
               a.memoryOrderNests() == b.memoryOrderNests() &&
               attempts == o.attempts && changed == o.changed &&
               sims == o.sims;
    }
};

OpRecord
runOp(const Input &in, uint32_t index, const harness::BatchOptions &opts,
      SpanLog *spans, uint32_t opId)
{
    OpRecord r;
    r.input = index;
    r.traced = spans != nullptr;
    uint32_t opSpan = 0;
    if (spans)
        opSpan = spans->begin("harness.run_isolated", 0, opId);
    harness::BatchInput bi{
        in.name, [&]() -> Result<Program> {
            uint32_t parseSpan = 0;
            if (spans)
                parseSpan = spans->begin("frontend.parse", opSpan, opId);
            ParseError err;
            std::optional<Program> prog = parseProgram(in.source, &err);
            if (spans)
                r.parseUs = spans->end(parseSpan);
            if (!prog)
                return Result<Program>::err(Diag::error(
                    "parse.error", err.message, err.line, err.col));
            return Result<Program>(std::move(*prog));
        }};
    const Clock::time_point t0 = Clock::now();
    harness::ProgramOutcome out = harness::runIsolated(bi, opts);
    r.ms = usSince(t0) / 1000.0;
    if (spans)
        spans->end(opSpan);

    r.timings = out.timings;
    r.status = out.status;
    r.rung = out.rung;
    r.attempts = out.attempts;
    r.nests = static_cast<int>(out.nests.size());
    for (const harness::NestOutcome &n : out.nests) {
        r.changed += (n.strategy != "none" && !n.rolledBack) ? 1 : 0;
        r.decisions = addDecision(r.decisions, n.strategy, n.rolledBack);
    }
    for (const harness::ProgramOutcome::SimOutcome &s : out.sims)
        r.sims.push_back({s.accesses, s.hits, s.misses});
    return r;
}

/** Check one timed op against the check pass's answer for its input. */
std::vector<std::string>
checkOp(const OpRecord &r, const Input &in, const Expected &e,
        bool simulated)
{
    std::vector<std::string> problems;
    const std::string where = in.name + ": ";
    if (r.status != harness::BatchStatus::Ok ||
        r.rung != harness::Rung::FullCompound || r.attempts != 1)
        problems.push_back(where + "op did not complete on the top rung (" +
                           harness::batchStatusName(r.status) + ")");
    if (r.nests != e.nests)
        problems.push_back(where + "nest count differs from check pass");
    else if (r.decisions != e.decisions)
        problems.push_back(where +
                           "per-nest decisions differ from check pass");
    if (simulated) {
        if (r.sims.size() != e.final.size())
            problems.push_back(where + "missing simulation results");
        for (const SimCounts &s : r.sims)
            if (s.hits + s.misses != s.accesses)
                problems.push_back(where + "hits+misses != accesses");
        if (r.sims != e.final)
            problems.push_back(where +
                               "simulated counters differ from check pass");
    } else if (!r.sims.empty()) {
        problems.push_back(where + "simulated although simulation is off");
    }
    return problems;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Peak resident set of this process in MB (VmHWM). */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

Value
metric(double v, const char *unit)
{
    Value m = Value::object();
    m.set("value", Value::number(v));
    m.set("unit", Value::string(unit));
    return m;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    std::string spansPath;
    std::string serveMode;  ///< "inputs" or "expect"
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_inproc: " << why << "\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = value();
        else if (arg == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::strtod(value().c_str(), nullptr);
        else if (arg == "--trace")
            a.trace = value() == "1";
        else if (arg == "--setup-only")
            a.setupOnly = true;
        else if (arg == "--spans")
            a.spansPath = value();
        else if (arg == "--serve-inputs")
            a.serveMode = "inputs";
        else if (arg == "--serve-expect")
            a.serveMode = "expect";
        else
            usage("unknown argument " + arg);
    }
    return a;
}

/** --serve-inputs / --serve-expect. */
int
serveMain(const Args &a)
{
    ServeInputs gen(a.seed);
    if (a.serveMode == "inputs") {
        // Stream until the reader closes the pipe: the request driver
        // pulls programs as it needs them.
        std::signal(SIGPIPE, SIG_IGN);
        while (std::cout) {
            const int i = gen.index();
            const Input in = gen.next();
            Value v = Value::object();
            v.set("index", Value::number(static_cast<int64_t>(i)));
            v.set("hot", Value::boolean(i < kServeHot));
            v.set("kind", Value::string(in.kind));
            v.set("program", Value::string(in.source));
            std::cout << v.dump() << std::endl;
        }
        return 0;
    }
    // The hot set and one full walk over the pool. Each program goes
    // through runIsolated with the options a serve worker uses for its
    // kind (serve/server.cc), which gives the answer's fields, and
    // through the check pass.
    const serve::ServeOptions serveDefaults;
    std::vector<Input> inputs;
    while (gen.index() < kServeHot + static_cast<int>(kServePool))
        inputs.push_back(gen.next());
    for (size_t i = 0; i < inputs.size(); ++i) {
        const Input &in = inputs[i];
        std::vector<std::string> problems;
        Expected e = checkProgram(in, problems);
        harness::BatchOptions opts;
        opts.budget = serveDefaults.budget;
        opts.params = serveDefaults.params;
        opts.simulate = in.kind == "simulate";
        if (in.kind == "analyze")
            opts.startRung = harness::Rung::Identity;
        const harness::ProgramOutcome out = harness::runIsolated(
            harness::namedInput(in.name, in.source), opts);
        Value v = Value::object();
        v.set("index", Value::number(static_cast<int64_t>(i)));
        v.set("kind", Value::string(in.kind));
        v.set("status", Value::string(harness::batchStatusName(out.status)));
        v.set("rung", Value::string(harness::rungName(out.rung)));
        v.set("attempts", Value::number(int64_t{out.attempts}));
        v.set("loops", Value::number(int64_t{out.loops}));
        if (out.simulated) {
            Value sim = Value::object();
            sim.set("accesses",
                    Value::number(static_cast<int64_t>(out.accesses)));
            sim.set("hits", Value::number(static_cast<int64_t>(out.hits)));
            sim.set("misses", Value::number(static_cast<int64_t>(out.misses)));
            v.set("sim", std::move(sim));
        }
        v.set("nests", Value::number(static_cast<int64_t>(e.nests)));
        v.set("nests_memory_order",
              Value::number(static_cast<int64_t>(e.nestsMemoryOrder)));
        v.set("check_misses",
              Value::number(static_cast<int64_t>(e.final[0].misses)));
        v.set("cycles_orig", Value::number(e.cyclesOrig));
        v.set("cycles_final", Value::number(e.cyclesFinal));
        v.set("miss_penalty", Value::number(MachineModel{}.missPenalty));
        Value probs = Value::array();
        for (const std::string &p : problems)
            probs.push(Value::string(p));
        v.set("problems", std::move(probs));
        std::cout << v.dump() << "\n";
    }
    return 0;
}

/** Everything the timed phase measured. */
struct Phase
{
    std::vector<OpRecord> ops;
    std::vector<PassWork> passes;
    double wallUs[2] = {0.0, 0.0};  ///< [traced] -> pass wall time
    uint64_t opCount[2] = {0, 0};   ///< [traced] -> ops
    Counters tracedCounters;
    double seconds = 0.0;
};

/**
 * Repeat whole passes over the inputs until `seconds` have elapsed, so
 * every run measures the same mix. With `trace`, odd passes record
 * spans and even passes do not, and the phase ends on a pair.
 */
Phase
runPhase(const std::vector<Input> &inputs, const harness::BatchOptions &opts,
         double seconds, bool trace, SpanLog &spans)
{
    Phase ph;
    const Clock::time_point start = Clock::now();
    for (int pass = 0;; ++pass) {
        const bool traced = trace && pass % 2 == 1;
        const Counters before = readCounters();
        const Clock::time_point t0 = Clock::now();
        PassWork work;
        work.sims.resize(opts.cacheConfigs.size());
        for (uint32_t i = 0; i < inputs.size(); ++i) {
            ph.ops.push_back(runOp(inputs[i], i, opts,
                                   traced ? &spans : nullptr,
                                   static_cast<uint32_t>(ph.ops.size() + 1)));
            const OpRecord &r = ph.ops.back();
            work.attempts += r.attempts;
            work.changed += r.changed;
            for (size_t c = 0; c < r.sims.size() && c < work.sims.size();
                 ++c) {
                work.sims[c].accesses += r.sims[c].accesses;
                work.sims[c].hits += r.sims[c].hits;
                work.sims[c].misses += r.sims[c].misses;
            }
        }
        ph.wallUs[traced] += usSince(t0);
        ph.opCount[traced] += inputs.size();
        work.counters = readCounters() - before;
        if (traced)
            ph.tracedCounters += work.counters;
        ph.passes.push_back(std::move(work));
        const bool balanced = !trace || pass % 2 == 1;
        if (balanced && usSince(start) >= seconds * 1e6)
            break;
    }
    ph.seconds = usSince(start) / 1e6;
    return ph;
}

/**
 * Analysis probe, outside the timed phase: the dependence graph
 * (NestAnalysis) and LoopCost (nestCost) of every depth>=2 nest, timed
 * around the public calls, three times. The pipeline calls the same
 * code internally without spans. Returns the median per-input
 * milliseconds of each.
 */
std::pair<double, double>
analysisProbe(const std::vector<Input> &inputs, SpanLog &spans)
{
    std::vector<double> depMs, costMs;
    for (int rep = 0; rep < 3; ++rep) {
        double dep = 0, cost = 0;
        for (const Input &in : inputs) {
            std::vector<std::string> ignored;
            std::optional<Program> prog = parseInput(in, ignored);
            if (!prog)
                continue;
            for (auto &top : prog->body) {
                if (!top->isLoop() || loopDepth(*top) < 2)
                    continue;
                uint32_t s = spans.begin("dependence.analysis", 0, 0);
                NestAnalysis na(*prog, top.get(), ModelParams{});
                dep += spans.end(s);
                s = spans.begin("model.loopcost", 0, 0);
                static_cast<void>(nestCost(na));
                cost += spans.end(s);
            }
        }
        const double n = static_cast<double>(inputs.size());
        depMs.push_back(dep / 1000.0 / n);
        costMs.push_back(cost / 1000.0 / n);
    }
    return {median(depMs), median(costMs)};
}

/** Per-layer metrics over the traced passes. */
Value
layerMetrics(const Phase &ph, const std::vector<Input> &inputs,
             const std::vector<Expected> &expected, bool simulate,
             SpanLog &spans)
{
    double parseUs = 0, bytes = 0, validateUs = 0, verifyUs = 0,
           optimizeUs = 0, simulateUs = 0, overheadMs = 0;
    double attempts = 0, changed = 0, streamAccesses = 0;
    double finalAccesses = 0, finalMisses = 0;
    for (const OpRecord &r : ph.ops) {
        if (!r.traced)
            continue;
        const Expected &e = expected[r.input];
        parseUs += r.parseUs;
        bytes += static_cast<double>(inputs[r.input].source.size());
        validateUs += r.timings.loadUs - r.parseUs;
        verifyUs += r.timings.verifyUs;
        optimizeUs += r.timings.optimizeUs;
        simulateUs += r.timings.simulateUs;
        overheadMs += r.ms - (r.timings.loadUs + r.timings.optimizeUs +
                              r.timings.verifyUs + r.timings.simulateUs) /
                                 1000.0;
        attempts += r.attempts;
        changed += r.changed;
        if (simulate) {
            streamAccesses +=
                static_cast<double>(e.origAccesses + e.finalAccesses);
            finalAccesses += static_cast<double>(r.sims[0].accesses);
            finalMisses += static_cast<double>(r.sims[0].misses);
        }
    }
    const double n = static_cast<double>(ph.opCount[1]);
    const Counters &c = ph.tracedCounters;
    auto perOp = [&](double v) { return v / n; };
    auto pct = [](double part, double whole) {
        return whole > 0 ? 100.0 * part / whole : 0.0;
    };
    auto count = [](uint64_t v) { return static_cast<double>(v); };
    const auto [depMs, costMs] = analysisProbe(inputs, spans);

    Value m = Value::object();
    m.set("frontend.parse_ms", metric(perOp(parseUs) / 1000, "ms"));
    m.set("frontend.bytes_per_s", metric(bytes / (parseUs / 1e6), "B/s"));
    m.set("check.validate_ms", metric(perOp(validateUs) / 1000, "ms"));
    m.set("check.equiv.verify_ms", metric(perOp(verifyUs) / 1000, "ms"));
    m.set("check.equiv.checks_per_op",
          metric(perOp(count(c.equivChecks)), "count"));
    m.set("check.equiv.unchanged_share_pct",
          metric(pct(count(c.equivChecks) - changed, count(c.equivChecks)),
                 "%"));
    m.set("dependence.analysis_ms", metric(depMs, "ms"));
    m.set("dependence.memo_hit_pct",
          metric(pct(count(c.memoHits), count(c.memoHits + c.memoMisses)),
                 "%"));
    m.set("model.loopcost_ms", metric(costMs, "ms"));
    m.set("model.refgroup.spatial_scans_per_op",
          metric(perOp(count(c.spatialScans)), "count"));
    m.set("transform.optimize_ms", metric(perOp(optimizeUs) / 1000, "ms"));
    m.set("transform.nests_changed_per_op", metric(perOp(changed), "count"));
    m.set("transform.permute_candidates_per_op",
          metric(perOp(count(c.permuteCandidates)), "count"));
    m.set("interp.simulate_ms", metric(perOp(simulateUs) / 1000, "ms"));
    m.set("interp.passes_per_op", metric(perOp(count(c.interpRuns)), "count"));
    m.set("interp.oracle_passes_per_op",
          metric(perOp(count(c.interpRuns - c.sweepRuns)), "count"));
    m.set("interp.sim_passes_per_op",
          metric(perOp(count(c.sweepRuns)), "count"));
    m.set("interp.ns_per_access",
          metric(streamAccesses > 0 ? simulateUs * 1000.0 / streamAccesses
                                    : 0.0,
                 "ns"));
    m.set("cachesim.accesses_per_op", metric(perOp(streamAccesses), "count"));
    m.set("cachesim.miss_pct", metric(pct(finalMisses, finalAccesses), "%"));
    m.set("harness.attempts_per_op", metric(perOp(attempts), "count"));
    m.set("harness.overhead_ms", metric(perOp(overheadMs), "ms"));
    const double rateUntraced = ph.opCount[0] / ph.wallUs[0];
    const double rateTraced = ph.opCount[1] / ph.wallUs[1];
    m.set("trace.overhead_pct",
          metric(100.0 * (rateUntraced / rateTraced - 1.0), "%"));
    return m;
}

/** Exact work of one pass plus the quality figures, for the cross-run
 *  determinism guard. */
Value
workCounters(const PassWork &w, size_t inputs, double speedupGeomean)
{
    Value counters = Value::object();
    auto count = [&](const std::string &name, uint64_t v) {
        counters.set(name, Value::number(static_cast<int64_t>(v)));
    };
    count("inputs", inputs);
    count("check.equiv.checks", w.counters.equivChecks);
    count("check.equiv.runs", w.counters.equivRuns);
    count("interp.passes", w.counters.interpRuns);
    count("interp.sweep_passes", w.counters.sweepRuns);
    count("model.refgroup.spatial_scans", w.counters.spatialScans);
    count("pass.permute.candidates_considered", w.counters.permuteCandidates);
    count("harness.attempts", w.attempts);
    count("transform.nests_changed", w.changed);
    for (size_t c = 0; c < w.sims.size(); ++c) {
        const std::string cache = kCacheNames[c];
        count("cachesim." + cache + ".accesses", w.sims[c].accesses);
        count("cachesim." + cache + ".hits", w.sims[c].hits);
        count("cachesim." + cache + ".misses", w.sims[c].misses);
    }
    count("nests", w.counters.compoundNests);
    count("nests_memory_order", w.counters.memoryOrderNests());
    counters.set("sim_speedup_geomean", Value::number(speedupGeomean));
    return counters;
}

int
workloadMain(const Args &a)
{
    const Clock::time_point epoch = Clock::now();
    const bool simulate = a.workload == "kernel_simulate";
    std::vector<Input> inputs;
    if (a.workload == "corpus_compile")
        inputs = corpusCompileInputs(a.seed);
    else if (simulate)
        inputs = kernelSimulateInputs(a.seed);
    else
        usage("unknown workload '" + a.workload + "'");
    std::cout << "ready " << inputs.size() << std::endl;
    if (a.setupOnly)
        return 0;

    // Untimed check pass; it also warms the allocator and the
    // dependence memo before timing starts. Both workloads simulate
    // here, so Table 3's speedup is known for the corpus too.
    Tally tally;
    std::vector<Expected> expected;
    for (const Input &in : inputs) {
        std::vector<std::string> problems;
        expected.push_back(checkProgram(in, problems));
        tally.record(problems);
    }

    harness::BatchOptions opts;
    opts.simulate = simulate;
    opts.cacheConfigs = paperCaches();
    SpanLog spans(epoch);
    const Phase ph = runPhase(inputs, opts, a.seconds, a.trace, spans);

    for (const OpRecord &r : ph.ops)
        tally.record(
            checkOp(r, inputs[r.input], expected[r.input], simulate));
    bool deterministic = true;
    for (const PassWork &p : ph.passes)
        deterministic = deterministic && p.sameWork(ph.passes.front());
    tally.record(deterministic
                     ? std::vector<std::string>{}
                     : std::vector<std::string>{
                           "work counters differ between passes"});

    // Table 2 from the timed ops: Compound's own per-nest counters over
    // one untraced pass (every pass does the same work, checked above).
    // It is not compared with the check pass's direct compoundTransform
    // calls: on one corpus_compile seed the two disagreed about one fuzz
    // nest with the same strategy (README.md, "End-to-end metrics").
    const Counters &timedWork = ph.passes.front().counters;
    const double memoryOrderPct =
        timedWork.compoundNests
            ? 100.0 * static_cast<double>(timedWork.memoryOrderNests()) /
                  static_cast<double>(timedWork.compoundNests)
            : 0.0;

    // Table 3 over the inputs. kernel_simulate takes each program's
    // transformed cycles from its first untraced timed op's own i860 miss
    // count; corpus_compile's timed ops do not simulate, so it takes them
    // from the check pass, whose per-nest decisions every timed op must
    // have repeated (checkOp).
    std::vector<const OpRecord *> firstOp(inputs.size(), nullptr);
    std::vector<double> latencies;
    for (const OpRecord &r : ph.ops) {
        if (r.traced)
            continue;
        latencies.push_back(r.ms);
        if (!firstOp[r.input])
            firstOp[r.input] = &r;
    }
    double logSpeedup = 0.0;
    for (size_t i = 0; i < inputs.size(); ++i) {
        const Expected &e = expected[i];
        const OpRecord *r = firstOp[i];
        const double cyclesFinal =
            simulate && r && !r->sims.empty()
                ? e.cyclesFinalWith(r->sims[0].misses)
                : e.cyclesFinal;
        if (e.cyclesOrig > 0 && cyclesFinal > 0)
            logSpeedup += std::log(e.cyclesOrig / cyclesFinal);
    }
    const double speedupGeomean =
        std::exp(logSpeedup / static_cast<double>(inputs.size()));

    Value e2e = Value::object();
    e2e.set("ops_per_s",
            metric(static_cast<double>(ph.opCount[0]) / (ph.wallUs[0] / 1e6),
                   "ops/s"));
    e2e.set("latency_p50_ms", metric(quantile(latencies, 0.5), "ms"));
    e2e.set("latency_p99_ms", metric(quantile(latencies, 0.99), "ms"));
    e2e.set("peak_rss_mb", metric(peakRssMb(), "MB"));
    e2e.set("nests_memory_order_pct", metric(memoryOrderPct, "%"));
    e2e.set("sim_speedup_geomean", metric(speedupGeomean, "x"));

    Value layers = Value::object();
    if (a.trace) {
        layers = layerMetrics(ph, inputs, expected, simulate, spans);
        if (!a.spansPath.empty())
            spans.write(a.spansPath);
    }

    Value checks = Value::object();
    checks.set("attempted",
               Value::number(static_cast<int64_t>(tally.attempted)));
    checks.set("failed", Value::number(static_cast<int64_t>(tally.failed)));
    Value msgs = Value::array();
    for (const std::string &m : tally.messages)
        msgs.push(Value::string(m));
    checks.set("messages", std::move(msgs));

    Value result = Value::object();
    result.set("workload", Value::string(a.workload));
    result.set("ops", Value::number(static_cast<int64_t>(ph.ops.size())));
    result.set("passes", Value::number(static_cast<int64_t>(ph.passes.size())));
    result.set("phase_s", Value::number(ph.seconds));
    result.set("end_to_end", std::move(e2e));
    result.set("per_layer", std::move(layers));
    result.set("counters",
               workCounters(ph.passes.front(), inputs.size(), speedupGeomean));
    result.set("checks", std::move(checks));
    std::cout << result.dump() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    if (!a.serveMode.empty())
        return serveMain(a);
    return workloadMain(a);
}
