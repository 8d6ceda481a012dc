#include "transform/compound.hh"

#include <optional>
#include <utility>

#include "check/equiv.hh"
#include "check/validate.hh"
#include "harness/budget.hh"
#include "harness/fault.hh"
#include "ir/walk.hh"
#include "model/loopcost.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"
#include "transform/distribute.hh"

namespace memoria {

namespace {

harness::FaultSite gCompoundFault("transform.compound");

std::function<void(std::vector<NodePtr> &, size_t, size_t)>
    gSabotageHook;

} // namespace

void
setCompoundSabotageHook(
    std::function<void(std::vector<NodePtr> &, size_t, size_t)> hook)
{
    gSabotageHook = std::move(hook);
}

const char *
nestStrategyName(const NestReport &rep)
{
    if (rep.usedDistribution)
        return "distribute";
    if (rep.usedFusion)
        return "fuse-all";
    if (rep.usedPermutation)
        return "permute";
    return "none";
}

namespace {

/** Memory-order loop variables of a nest, e.g. "JKI". */
std::string
memoryOrderString(const Program &prog, const NestAnalysis &na)
{
    std::string s;
    for (Node *l : na.memoryOrder())
        s += prog.varName(l->var);
    return s;
}

/**
 * Equivalence protocol for the pipeline guards: try a cheap shrunken
 * size first; the program's own (possibly large) default sizes are the
 * fallback, paid only when shrinking is inconclusive.
 */
EquivOptions
guardEquivOptions()
{
    EquivOptions eo;
    eo.sizes = {7, 0};
    eo.stopAfterConclusiveSize = true;
    return eo;
}

/** Mark every array the subtree writes or reads. */
void
markArrays(Node &root, std::vector<uint8_t> &used)
{
    for (const StmtContext &ctx : collectStmts(&root))
        for (const RefOcc &occ : collectRefs(ctx.node->stmt))
            if (occ.ref->array >= 0 &&
                static_cast<size_t>(occ.ref->array) < used.size())
                used[occ.ref->array] = 1;
}

/**
 * Renumbers array ids from a program's table into a nest-local one.
 * An id outside the source table maps to -1, so validation still
 * rejects it.
 */
class ArrayRemap
{
  public:
    explicit ArrayRemap(std::vector<ArrayId> newId)
        : newId_(std::move(newId))
    {
    }

    /** Deep copy of `n` in the nest-local numbering. */
    NodePtr
    clone(const Node &n) const
    {
        NodePtr out = cloneNode(n);
        for (const StmtContext &ctx : collectStmts(out.get())) {
            Statement &s = ctx.node->stmt;
            s.write = ref(s.write);
            s.rhs = value(s.rhs);
        }
        return out;
    }

  private:
    ArrayRef
    ref(const ArrayRef &r) const
    {
        ArrayRef out;
        out.array = r.array >= 0 && static_cast<size_t>(r.array) <
                                        newId_.size()
                        ? newId_[r.array]
                        : -1;
        out.subs.reserve(r.subs.size());
        for (const Subscript &s : r.subs)
            out.subs.push_back(s.isAffine()
                                   ? s
                                   : Subscript::makeOpaque(value(s.opaque)));
        return out;
    }

    /** `v` itself for a leaf that loads nothing; else a copy with its
     *  loads renumbered. */
    ValuePtr
    value(const ValuePtr &v) const
    {
        if (v->op != ValOp::Load && v->kids.empty())
            return v;
        auto out = std::make_shared<Value>(*v);
        if (v->op == ValOp::Load)
            out->load = ref(v->load);
        for (ValuePtr &kid : out->kids)
            kid = value(kid);
        return out;
    }

    std::vector<ArrayId> newId_;
};

/**
 * The two versions of one nest as programs for the oracle: `refP` runs
 * `orig`, `candP` runs the `slots` nodes of `ownerBody` from `index`.
 * Both keep every variable of `prog` but declare only the arrays
 * either version references, in `prog`'s order and renumbered the same
 * way on both sides, so validation, binding and the array comparison
 * scale with the nest rather than with the program's tables.
 */
void
buildNestPrograms(const Program &prog, Node &orig,
                  const std::vector<NodePtr> &ownerBody, size_t index,
                  size_t slots, Program &refP, Program &candP)
{
    std::vector<uint8_t> used(prog.arrays.size(), 0);
    markArrays(orig, used);
    for (size_t s = 0; s < slots; ++s)
        markArrays(*ownerBody[index + s], used);
    std::vector<ArrayId> newId(prog.arrays.size(), -1);
    std::vector<ArrayDecl> arrays;
    for (size_t a = 0; a < prog.arrays.size(); ++a) {
        if (!used[a])
            continue;
        newId[a] = static_cast<ArrayId>(arrays.size());
        arrays.push_back(prog.arrays[a]);
    }
    const ArrayRemap remap(std::move(newId));

    refP.name = prog.name + "#orig";
    refP.vars = prog.vars;
    refP.arrays = arrays;
    refP.body.push_back(remap.clone(orig));
    candP.name = prog.name + "#opt";
    candP.vars = prog.vars;
    candP.arrays = std::move(arrays);
    for (size_t s = 0; s < slots; ++s)
        candP.body.push_back(remap.clone(*ownerBody[index + s]));
}

/**
 * Guard a transformation: structural validation of the candidate, then
 * the differential oracle against the reference. Returns the reason
 * the candidate was rejected, or an empty string when it passes.
 */
std::string
verifyAgainst(const Program &ref, const Program &cand)
{
    // Verification time accrues to the request's verify stage even
    // though it runs nested inside the optimize stage; the optimize
    // accumulation (harness/batch.cc) subtracts it back out.
    obs::StageTimer stage(&obs::StageTimes::verifyUs);
    std::vector<Diag> diags = validateProgram(cand);
    if (!diags.empty())
        return "IR validation: " + diags.front().str();
    EquivResult eq = checkEquivalence(ref, cand, guardEquivOptions());
    if (!eq.equivalent)
        return eq.detail;
    return {};
}

/**
 * Optimize the nest at ownerBody[index] toward memory order using
 * permutation, then inner fusion (FuseAll), then distribution, and
 * finally recursion into the sub-nests below the perfect chain (the
 * paper's statements each get their best inner loop even when the
 * outer structure is imperfect). `topAnalysis` is the caller's analysis
 * of the top-level nest; a recursive sub-nest passes nullptr and builds
 * its own. Sets `changed` when any step rewrote the nest. Returns the
 * number of sibling slots the nest occupies afterwards; fills `rep`
 * when non-null.
 */
size_t
optimizeStructure(const Program &prog, std::vector<NodePtr> &ownerBody,
                  size_t index, const std::vector<Node *> &enclosing,
                  const ModelParams &params,
                  const CompoundOptions &opts, CompoundResult &result,
                  NestReport *rep, bool &changed,
                  const NestAnalysis *topAnalysis)
{
    harness::poll("compound.structure");

    Node *root = ownerBody[index].get();
    const bool isTop = topAnalysis != nullptr;

    // Step 1: permutation of the perfect chain.
    PermuteResult pr;
    bool innerPlaced;
    {
        std::optional<NestAnalysis> own;
        const NestAnalysis &na =
            isTop ? *topAnalysis
                  : own.emplace(prog, root, params, enclosing);
        pr = permuteToMemoryOrder(na, root);

        // Figure 6's test is whether the nest's most-reuse loop is now
        // innermost — a trivially "sorted" short chain above an
        // imperfect structure does not qualify. Permute rewrites
        // headers in place, so a permuted nest needs a fresh analysis.
        innerPlaced =
            pr.achievedMemoryOrder &&
            (pr.changed ? innermostInMemoryOrder(NestAnalysis(
                              prog, root, params, enclosing))
                        : innermostInMemoryOrder(na));
    }
    changed |= pr.changed;
    if (rep) {
        rep->usedPermutation |= pr.changed;
        rep->usedReversal |= pr.usedReversal;
        if (isTop)
            rep->fail = pr.fail;
    }

    size_t slots = 1;
    if (!innerPlaced) {
        // Step 2: fuse all inner loops to enable permutation
        // (Section 4.3.2), with rollback when it does not pay off.
        std::vector<Node *> chain = perfectChain(root);
        Node *deepest = chain.back();
        bool innerAllLoops = !deepest->body.empty();
        for (const auto &kid : deepest->body)
            innerAllLoops = innerAllLoops && kid->isLoop();

        bool fusionEnabled = false;
        if (opts.enableFuseAll && innerAllLoops &&
            deepest->body.size() > 1) {
            NodePtr snapshot = cloneNode(*root);
            std::vector<Node *> enc = enclosing;
            for (size_t i = 0; i + 1 < chain.size(); ++i)
                enc.push_back(chain[i]);
            if (fuseAllInner(prog, *deepest, enc, params)) {
                NestAnalysis na(prog, root, params, enclosing);
                PermuteResult pr2 = permuteToMemoryOrder(na, root);
                if (pr2.achievedMemoryOrder || pr2.innerInMemoryOrder) {
                    fusionEnabled = true;
                    if (rep) {
                        rep->usedFusion = true;
                        rep->usedPermutation |= pr2.changed;
                        rep->usedReversal |= pr2.usedReversal;
                        if (isTop)
                            rep->fail = pr2.fail;
                    }
                }
            }
            if (fusionEnabled) {
                changed = true;
            } else {
                ownerBody[index] = std::move(snapshot);
                root = ownerBody[index].get();
            }
        }

        // Step 3: distribution at the deepest enabling level.
        if (opts.enableDistribution && !fusionEnabled) {
            DistributeResult dr = distributeForMemoryOrder(
                prog, ownerBody, index, enclosing, params);
            if (dr.distributed) {
                changed = true;
                result.distributions += 1;
                result.resultingNests += dr.resultingNests;
                if (rep) {
                    rep->usedDistribution = true;
                    if (isTop)
                        rep->fail = PermuteFail::None;
                }
                if (dr.splitTopLevel)
                    slots = static_cast<size_t>(dr.resultingNests);
            }
        }
    }

    // Step 4: recurse into the sub-nests hanging below each slot's
    // perfect chain, so statements in imperfect structures still get
    // their best inner loop (e.g. the update nest of Gaussian
    // elimination inside the pivot loop).
    for (size_t s = 0; s < slots; ++s) {
        Node *part = ownerBody[index + s].get();
        std::vector<Node *> chain = perfectChain(part);
        Node *deepest = chain.back();
        std::vector<Node *> enc = enclosing;
        for (Node *c : chain)
            enc.push_back(c);
        size_t k = 0;
        while (k < deepest->body.size()) {
            if (deepest->body[k]->isLoop() &&
                loopDepth(*deepest->body[k]) >= 2) {
                k += optimizeStructure(prog, deepest->body, k, enc,
                                       params, opts, result, rep,
                                       changed, nullptr);
            } else {
                ++k;
            }
        }
    }
    return slots;
}

/** Top-level per-nest wrapper: gathers the before/after statistics. */
size_t
optimizeNest(const Program &prog, std::vector<NodePtr> &ownerBody,
             size_t index, const std::vector<Node *> &enclosing,
             const ModelParams &params, const CompoundOptions &opts,
             CompoundResult &result)
{
    const bool verify = opts.verify;
    harness::poll("compound.nest");

    Node *root = ownerBody[index].get();
    NestReport rep;
    rep.depth = loopDepth(*root);

    obs::TraceScope span("pass.compound", "nest");
    const uint64_t analysesBefore = NestAnalysis::constructedOnThisThread();

    NodePtr snapshot;
    int savedDistributions = result.distributions;
    int savedResultingNests = result.resultingNests;
    if (verify)
        snapshot = cloneNode(*root);

    // One analysis of the original nest feeds both the before-statistics
    // and Compound's first permutation step.
    std::string memOrder;
    bool changed = false;
    size_t slots;
    {
        NestAnalysis na(prog, root, params, enclosing);
        rep.origCost = nestCost(na);
        rep.idealCost = idealNestCost(na);
        rep.origMemoryOrder = nestInMemoryOrder(na);
        rep.origInnerMemoryOrder = innermostInMemoryOrder(na);
        if (span.active())
            memOrder = memoryOrderString(prog, na);
        slots = optimizeStructure(prog, ownerBody, index, enclosing,
                                  params, opts, result, &rep, changed,
                                  &na);
    }

    if (gSabotageHook) {
        gSabotageHook(ownerBody, index, slots);
        changed = true;
    }

    // A nest that still fills one slot and equals its snapshot field
    // for field runs exactly as the reference does (same tables, and
    // the interpreter is deterministic), so the oracle could only
    // agree. Verify only what Compound actually rewrote.
    const bool verified =
        verify && (slots != 1 ||
                   !structurallyEqual(*snapshot, *ownerBody[index]));
    static obs::Counter &cVerifySkipped =
        obs::counter("pass.compound.nests_verify_skipped");
    if (verify && !verified)
        ++cVerifySkipped;

    if (verified) {
        Program refP;
        Program candP;
        buildNestPrograms(prog, *snapshot, ownerBody, index, slots, refP,
                          candP);
        std::string why = verifyAgainst(refP, candP);
        if (!why.empty()) {
            auto first =
                ownerBody.begin() + static_cast<std::ptrdiff_t>(index);
            ownerBody.erase(first + 1,
                            first + static_cast<std::ptrdiff_t>(slots));
            ownerBody[index] = std::move(snapshot);
            slots = 1;
            rep.rolledBack = true;
            result.failVerify += 1;
            result.distributions = savedDistributions;
            result.resultingNests = savedResultingNests;
            ++obs::counter("pass.compound.nests_verify_failed");
            if (obs::tracingEnabled())
                obs::traceEvent("check", "verify_failed",
                                {{"program", prog.name},
                                 {"strategy", nestStrategyName(rep)},
                                 {"detail", why}});
        }
    }

    // Final per-nest statistics over the slot range. A nest proven
    // unchanged (equal to its snapshot, or with verification off, no
    // step reporting a change) keeps the original analysis' values.
    const bool unchanged = verify ? !verified : !changed;
    if (unchanged) {
        rep.finalCost = rep.origCost;
        rep.finalMemoryOrder = rep.origMemoryOrder;
        rep.finalInnerMemoryOrder = rep.origInnerMemoryOrder;
    } else {
        rep.finalMemoryOrder = true;
        rep.finalInnerMemoryOrder = true;
        rep.finalCost = Poly();
        for (size_t s = 0; s < slots; ++s) {
            Node *part = ownerBody[index + s].get();
            NestAnalysis na(prog, part, params, enclosing);
            rep.finalMemoryOrder &= nestInMemoryOrder(na);
            rep.finalInnerMemoryOrder &= innermostInMemoryOrder(na);
            rep.finalCost += nestCost(na);
        }
    }
    if (rep.finalMemoryOrder)
        rep.fail = PermuteFail::None;

    // Decision provenance: what Compound chose for this nest and why.
    static obs::Counter &cNests =
        obs::counter("pass.compound.nests_total");
    static obs::Counter &cAlready =
        obs::counter("pass.compound.nests_already_in_memory_order");
    static obs::Counter &cPermuted =
        obs::counter("pass.compound.nests_permuted");
    static obs::Counter &cFailed =
        obs::counter("pass.compound.nests_failed");
    ++cNests;
    if (rep.origMemoryOrder)
        ++cAlready;
    else if (rep.finalMemoryOrder)
        ++cPermuted;
    else
        ++cFailed;
    if (rep.usedFusion)
        ++obs::counter("pass.compound.nests_fuse_all");
    if (rep.usedDistribution)
        ++obs::counter("pass.compound.nests_distributed");
    if (rep.usedReversal)
        ++obs::counter("pass.compound.nests_reversed");

    if (span.active()) {
        span.arg("depth", rep.depth);
        span.arg("memory_order", memOrder);
        span.arg("orig_memory_order", rep.origMemoryOrder);
        span.arg("final_memory_order", rep.finalMemoryOrder);
        span.arg("strategy", nestStrategyName(rep));
        span.arg("verified", verified);
        span.arg("analyses", NestAnalysis::constructedOnThisThread() -
                                 analysesBefore);
        span.arg("rolled_back", rep.rolledBack);
        span.arg("fail", permuteFailName(rep.fail));
        span.arg("used_reversal", rep.usedReversal);
        span.arg("orig_cost", rep.origCost.str());
        span.arg("final_cost", rep.finalCost.str());
        span.arg("ideal_cost", rep.idealCost.str());
        span.arg("slots", slots);
    }

    result.nests.push_back(std::move(rep));
    return slots;
}

} // namespace

CompoundResult
compoundTransform(Program &prog, const ModelParams &params,
                  const CompoundOptions &opts)
{
    CompoundResult result;

    gCompoundFault.fireNoDiag();
    harness::poll("compound.program");

    obs::TraceScope span("pass.compound", "program");
    span.arg("program", prog.name);
    obs::ScopedTimer timer(
        obs::statsRegistry().histogram("pass.compound.time_us"));

    for (auto &top : prog.body)
        if (top->isLoop())
            result.totalLoops +=
                static_cast<int>(collectLoops(top.get()).size());

    size_t index = 0;
    while (index < prog.body.size()) {
        Node *n = prog.body[index].get();
        if (!n->isLoop() || loopDepth(*n) < 2) {
            ++index;
            continue;
        }
        ++result.totalNests;
        index += optimizeNest(prog, prog.body, index, {}, params, opts,
                              result);
    }

    // Final pass: fuse adjacent compatible nests (and, through the
    // recursion inside fuseSiblings, the pieces distribution created)
    // when the cost model says temporal locality improves. Verification
    // treats the whole pre-fusion program as the reference, since
    // fusion crosses nest boundaries.
    if (opts.applyFusion) {
        std::vector<NodePtr> snapshot;
        if (opts.verify)
            for (const auto &top : prog.body)
                snapshot.push_back(cloneNode(*top));
        result.fusion = fuseSiblings(prog, prog.body, {}, params, true);
        if (opts.verify && result.fusion.fused > 0) {
            Program refP;
            refP.name = prog.name + "#prefuse";
            refP.vars = prog.vars;
            refP.arrays = prog.arrays;
            refP.body = std::move(snapshot);
            std::string why = verifyAgainst(refP, prog);
            if (!why.empty()) {
                prog.body = std::move(refP.body);
                result.fusion.failVerify += 1;
                result.fusion.fused = 0;
                ++obs::counter("pass.compound.fusion_verify_failed");
                if (obs::tracingEnabled())
                    obs::traceEvent("check", "verify_failed",
                                    {{"program", prog.name},
                                     {"strategy", "fuse"},
                                     {"detail", why}});
            }
        }
    }

    if (span.active()) {
        span.arg("total_loops", result.totalLoops);
        span.arg("total_nests", result.totalNests);
        span.arg("distributions", result.distributions);
        span.arg("fusion_candidates", result.fusion.candidates);
        span.arg("fused", result.fusion.fused);
        span.arg("fail_verify",
                 result.failVerify + result.fusion.failVerify);
    }
    return result;
}

} // namespace memoria
