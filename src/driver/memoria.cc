#include "driver/memoria.hh"

#include <set>

#include "model/checked.hh"
#include "model/loopcost.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"
#include "transform/permute.hh"

namespace memoria {

namespace {

/** Concrete size at which cost-ratio polynomials are evaluated. */
constexpr double kEvalN = 64.0;

/** Statement-id set of one subtree. */
std::set<int>
stmtIdSet(const Node &n)
{
    std::vector<int> ids;
    collectStmtIds(n, ids);
    return {ids.begin(), ids.end()};
}

/** Evaluate orig/new cost ratio at kEvalN; never below 1 when the
 *  transformation never hurts (guards tiny numeric noise). */
double
costRatio(const Poly &orig, const Poly &now)
{
    double o = checkedEval(orig, kEvalN);
    double t = checkedEval(now, kEvalN);
    if (t <= 0.0 || o <= 0.0)
        return 1.0;
    return o / t;
}

} // namespace

Program
idealProgram(const Program &input, const ModelParams &params)
{
    Program prog = input.clone();
    std::function<void(Node *, std::vector<Node *>)> walk =
        [&](Node *node, std::vector<Node *> outer) {
            if (!node->isLoop())
                return;
            if (loopDepth(*node) >= 2) {
                NestAnalysis na(prog, node, params, outer);
                permuteIgnoringLegality(na, node);
            }
            std::vector<Node *> chain = perfectChain(node);
            std::vector<Node *> inner = outer;
            for (Node *c : chain)
                inner.push_back(c);
            for (auto &kid : chain.back()->body)
                if (kid->isLoop())
                    walk(kid.get(), inner);
        };
    for (auto &n : prog.body)
        walk(n.get(), {});
    return prog;
}

AccessStats
programAccessStats(Program &prog, const ModelParams &params)
{
    AccessStats total;
    for (auto &n : prog.body) {
        if (!n->isLoop() || loopDepth(*n) < 2)
            continue;
        NestAnalysis na(prog, n.get(), params);
        total += gatherAccessStats(na);
    }
    return total;
}

OptimizedProgram
optimizeProgram(const Program &input, const ModelParams &params,
                const PipelineOptions &opts)
{
    obs::TraceScope span("driver", "optimize_program");
    span.arg("program", input.name);
    ++obs::counter("driver.programs_optimized");
    obs::ScopedTimer timer(
        obs::statsRegistry().histogram("driver.optimize_time_us"));

    OptimizedProgram out;
    out.original = input.clone();
    out.transformed = input.clone();

    if (opts.transform)
        out.compound =
            compoundTransform(out.transformed, params, opts.compound);

    // ----- Table 2 statistics ------------------------------------
    ProgramReport &rep = out.report;
    rep.name = input.name;
    rep.loops = out.compound.totalLoops;
    rep.nests = out.compound.totalNests;
    double sumRf = 0, sumRi = 0, sumRfW = 0, sumRiW = 0, sumW = 0;
    for (const auto &nr : out.compound.nests) {
        if (nr.origMemoryOrder)
            ++rep.nestsOrig;
        else if (nr.finalMemoryOrder)
            ++rep.nestsPerm;
        else
            ++rep.nestsFail;

        if (nr.origInnerMemoryOrder)
            ++rep.innerOrig;
        else if (nr.finalInnerMemoryOrder)
            ++rep.innerPerm;
        else
            ++rep.innerFail;

        if (!nr.finalMemoryOrder) {
            if (nr.fail == PermuteFail::Bounds)
                ++rep.failBounds;
            else
                ++rep.failDeps;
        }

        double rf = costRatio(nr.origCost, nr.finalCost);
        double ri = costRatio(nr.origCost, nr.idealCost);
        double w = nr.depth;
        sumRf += rf;
        sumRi += ri;
        sumRfW += rf * w;
        sumRiW += ri * w;
        sumW += w;
    }
    if (!out.compound.nests.empty()) {
        double n = static_cast<double>(out.compound.nests.size());
        rep.ratioFinal = sumRf / n;
        rep.ratioIdeal = sumRi / n;
        rep.ratioFinalWt = sumW > 0 ? sumRfW / sumW : 1.0;
        rep.ratioIdealWt = sumW > 0 ? sumRiW / sumW : 1.0;
    }
    rep.fusion = out.compound.fusion;
    rep.distributions = out.compound.distributions;
    rep.resultingNests = out.compound.resultingNests;
    rep.failVerify =
        out.compound.failVerify + out.compound.fusion.failVerify;

    if (span.active()) {
        span.arg("nests", rep.nests);
        span.arg("nests_orig", rep.nestsOrig);
        span.arg("nests_permuted", rep.nestsPerm);
        span.arg("nests_failed", rep.nestsFail);
        span.arg("ratio_final", rep.ratioFinal);
        span.arg("ratio_ideal", rep.ratioIdeal);
    }
    return out;
}

OptimizedProcedures
optimizedProcedures(const OptimizedProgram &opt)
{
    const Program &orig = opt.original;
    const Program &fin = opt.transformed;
    std::vector<std::set<int>> origSets, finalSets;
    for (const auto &n : orig.body)
        origSets.push_back(stmtIdSet(*n));
    for (const auto &n : fin.body)
        finalSets.push_back(stmtIdSet(*n));

    OptimizedProcedures out;
    out.original.name = orig.name + "_orig_opt";
    out.transformed.name = orig.name + "_final_opt";
    out.original.vars = orig.vars;
    out.original.arrays = orig.arrays;
    out.transformed.vars = fin.vars;
    out.transformed.arrays = fin.arrays;

    std::set<size_t> finalRelated;
    for (size_t o = 0; o < origSets.size(); ++o) {
        std::vector<size_t> related;
        for (size_t f = 0; f < finalSets.size(); ++f) {
            for (int id : origSets[o]) {
                if (finalSets[f].count(id)) {
                    related.push_back(f);
                    break;
                }
            }
        }
        bool changed = related.size() != 1 ||
                       finalSets[related[0]] != origSets[o] ||
                       !structurallyEqual(*orig.body[o],
                                          *fin.body[related[0]]);
        if (changed && !origSets[o].empty()) {
            out.original.body.push_back(cloneNode(*orig.body[o]));
            finalRelated.insert(related.begin(), related.end());
        }
    }
    for (size_t f : finalRelated)
        out.transformed.body.push_back(cloneNode(*fin.body[f]));
    return out;
}

namespace {

/** The two whole-program runs every simulation starts from. */
struct WholeRuns
{
    SweepResult orig;
    SweepResult fin;
};

Result<WholeRuns>
runWhole(const OptimizedProgram &opt,
         const std::vector<CacheConfig> &configs)
{
    Result<SweepResult> orig = tryRunWithCaches(opt.original, configs);
    if (!orig.ok())
        return Result<WholeRuns>::err(orig.diag());
    Result<SweepResult> fin = tryRunWithCaches(opt.transformed, configs);
    if (!fin.ok())
        return Result<WholeRuns>::err(fin.diag());
    return WholeRuns{std::move(orig.value()), std::move(fin.value())};
}

std::vector<Performance>
performanceOf(const WholeRuns &runs)
{
    std::vector<Performance> perf(runs.orig.cycles.size());
    for (size_t i = 0; i < perf.size(); ++i)
        perf[i] = {runs.orig.cycles[i], runs.fin.cycles[i]};
    return perf;
}

} // namespace

Result<std::vector<HitRates>>
simulateHitRates(const OptimizedProgram &opt,
                 const std::vector<CacheConfig> &configs,
                 std::vector<Performance> *perf)
{
    obs::TraceScope span("driver", "simulate_hit_rates");
    span.arg("program", opt.original.name);
    span.arg("configs", static_cast<uint64_t>(configs.size()));

    std::vector<HitRates> rates(configs.size());
    if (configs.empty())
        return rates;

    // One interpreter pass per program version feeds every config.
    Result<WholeRuns> whole = runWhole(opt, configs);
    if (!whole.ok())
        return Result<std::vector<HitRates>>::err(whole.diag());
    for (size_t i = 0; i < configs.size(); ++i) {
        rates[i].wholeOrig = whole.value().orig.cache[i].hitRateWarm();
        rates[i].wholeFinal = whole.value().fin.cache[i].hitRateWarm();
    }
    if (perf)
        *perf = performanceOf(whole.value());

    OptimizedProcedures procs = optimizedProcedures(opt);
    if (procs.any()) {
        Result<SweepResult> optOrig =
            tryRunWithCaches(procs.original, configs);
        if (!optOrig.ok())
            return Result<std::vector<HitRates>>::err(optOrig.diag());
        Result<SweepResult> optFinal =
            tryRunWithCaches(procs.transformed, configs);
        if (!optFinal.ok())
            return Result<std::vector<HitRates>>::err(optFinal.diag());
        for (size_t i = 0; i < configs.size(); ++i) {
            rates[i].optOrig = optOrig.value().cache[i].hitRateWarm();
            rates[i].optFinal = optFinal.value().cache[i].hitRateWarm();
        }
    } else {
        for (HitRates &r : rates)
            r.optOrig = r.optFinal = r.wholeOrig;
    }
    if (span.active()) {
        span.arg("whole_orig_hit_pct", rates.front().wholeOrig);
        span.arg("whole_final_hit_pct", rates.front().wholeFinal);
    }
    return rates;
}

Result<std::vector<Performance>>
simulatePerformance(const OptimizedProgram &opt,
                    const std::vector<CacheConfig> &configs)
{
    Result<WholeRuns> whole = runWhole(opt, configs);
    if (!whole.ok())
        return Result<std::vector<Performance>>::err(whole.diag());
    return performanceOf(whole.value());
}

} // namespace memoria
