#include "transform/fuse.hh"

#include <set>

#include "dependence/legality.hh"
#include "harness/budget.hh"
#include "harness/fault.hh"
#include "model/loopcost.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace memoria {

namespace {
harness::FaultSite gFuseFault("transform.fuse");
} // namespace

bool
headersCompatible(const Node &a, const Node &b)
{
    if (!a.isLoop() || !b.isLoop() || a.step != b.step)
        return false;
    return (a.ub - a.lb) == (b.ub - b.lb);
}

namespace {

/** True when a loop in the subtree binds variable v. */
bool
bindsVar(const Node &n, VarId v)
{
    if (n.isLoop()) {
        if (n.var == v)
            return true;
        for (const auto &kid : n.body)
            if (bindsVar(*kid, v))
                return true;
    }
    return false;
}

/**
 * Renaming b's index onto a's must not capture: a.var may not occur —
 * bound or free — inside b's body, and when a shift rewrites b.var the
 * body must not rebind it either.
 */
bool
mergeRenameSafe(const Node &a, const Node &b)
{
    AffineExpr shift = b.lb - a.lb;
    bool needRename = b.var != a.var || !(shift == AffineExpr(0));
    if (!needRename)
        return true;
    for (const auto &item : b.body) {
        if (bindsVar(*item, b.var))
            return false;  // shadowed index: substitution would break
        if (b.var != a.var &&
            (usesVar(*item, a.var) || bindsVar(*item, a.var)))
            return false;  // capture of the new index variable
    }
    return true;
}

} // namespace

void
mergeLoops(Node &a, NodePtr b)
{
    MEMORIA_ASSERT(headersCompatible(a, *b), "merging incompatible loops");
    MEMORIA_ASSERT(mergeRenameSafe(a, *b),
                   "loop merge would capture an index variable");
    AffineExpr shift = b->lb - a.lb;
    bool needRename =
        b->var != a.var || !(shift == AffineExpr(0));
    for (auto &item : b->body) {
        if (needRename) {
            substituteVar(*item, b->var,
                          AffineExpr::makeVar(a.var) + shift);
        }
        a.body.push_back(std::move(item));
    }
}

namespace {

/**
 * Build a detached trial: clones of a and b fused, wrapped in synthetic
 * copies of the enclosing loop headers so dependence levels and
 * variable bindings match the real context.
 */
NodePtr
buildFusedTrial(Node &a, Node &b, const std::vector<Node *> &enclosing)
{
    NodePtr merged = cloneNode(a);
    mergeLoops(*merged, cloneNode(b));
    NodePtr top = std::move(merged);
    for (auto it = enclosing.rbegin(); it != enclosing.rend(); ++it) {
        Node *outer = *it;
        std::vector<NodePtr> body;
        body.push_back(std::move(top));
        top = Node::makeLoop(outer->var, outer->lb, outer->ub,
                             outer->step, std::move(body));
    }
    return top;
}

} // namespace

bool
fusionLegal(const Program &prog, Node &a, Node &b,
            const std::vector<Node *> &enclosing)
{
    if (!headersCompatible(a, b) || !mergeRenameSafe(a, b))
        return false;

    std::vector<int> ids1, ids2;
    collectStmtIds(a, ids1);
    collectStmtIds(b, ids2);
    const std::set<int> set1(ids1.begin(), ids1.end());
    const std::set<int> set2(ids2.begin(), ids2.end());

    NodePtr trial = buildFusedTrial(a, b, enclosing);
    DependenceGraph graph(prog, collectStmts(trial.get()));
    int fusedLevel = static_cast<int>(enclosing.size());

    for (const auto &e : graph.edges()) {
        if (!e.constrains())
            continue;
        if (set2.count(e.src->id) && set1.count(e.dst->id) &&
            !definitelyCarriedBefore(e, fusedLevel))
            return false;
    }
    return true;
}

bool
fusionProfitable(const Program &prog, Node &a, Node &b,
                 const std::vector<Node *> &enclosing,
                 const ModelParams &params)
{
    NodePtr merged = cloneNode(a);
    mergeLoops(*merged, cloneNode(b));

    NestAnalysis fusedNa(prog, merged.get(), params, enclosing);
    Poly fused = fusedNa.loopCost(merged.get());

    NestAnalysis aNa(prog, &a, params, enclosing);
    NestAnalysis bNa(prog, &b, params, enclosing);
    Poly separate = aNa.loopCost(&a) + bNa.loopCost(&b);

    return fused < separate;
}

FuseStats
fuseSiblings(const Program &prog, std::vector<NodePtr> &siblings,
             const std::vector<Node *> &enclosing,
             const ModelParams &params, bool requireProfit,
             bool countStats)
{
    gFuseFault.fireNoDiag();
    harness::poll("transform.fuse");

    FuseStats stats;

    // Candidate counting (Table 2, column C): nests that belong to at
    // least one adjacent compatible pair, before any merging.
    if (countStats) {
        std::set<const Node *> candidateSet;
        for (size_t i = 0; i + 1 < siblings.size(); ++i) {
            if (siblings[i]->isLoop() && siblings[i + 1]->isLoop() &&
                headersCompatible(*siblings[i], *siblings[i + 1])) {
                candidateSet.insert(siblings[i].get());
                candidateSet.insert(siblings[i + 1].get());
            }
        }
        stats.candidates = static_cast<int>(candidateSet.size());
    }

    static obs::Counter &cPairs =
        obs::counter("pass.fuse.pairs_considered");
    static obs::Counter &cIncompatible =
        obs::counter("pass.fuse.rejected_incompatible");
    static obs::Counter &cIllegal =
        obs::counter("pass.fuse.rejected_legality");
    static obs::Counter &cUnprofitable =
        obs::counter("pass.fuse.rejected_profit");
    static obs::Counter &cFused = obs::counter("pass.fuse.fused");

    std::set<const Node *> fusedInto;
    size_t i = 0;
    while (i + 1 < siblings.size()) {
        Node *a = siblings[i].get();
        Node *b = siblings[i + 1].get();
        if (!a->isLoop() || !b->isLoop()) {
            ++i;
            continue;
        }
        ++cPairs;
        // Evaluated stepwise so the rejection reason is observable.
        bool compatible = headersCompatible(*a, *b);
        bool legal = compatible && fusionLegal(prog, *a, *b, enclosing);
        bool canFuse =
            legal && (!requireProfit ||
                      fusionProfitable(prog, *a, *b, enclosing, params));
        if (!canFuse) {
            const char *why = !compatible ? "incompatible"
                              : !legal    ? "dependences"
                                          : "unprofitable";
            ++(!compatible ? cIncompatible
               : !legal    ? cIllegal
                           : cUnprofitable);
            if (obs::tracingEnabled()) {
                obs::traceEvent("pass.fuse", "candidate",
                                {{"level", enclosing.size()},
                                 {"accepted", false},
                                 {"reason", why}});
            }
            ++i;
            continue;
        }
        // `b` disappears into `a`.
        ++cFused;
        if (obs::tracingEnabled()) {
            obs::traceEvent("pass.fuse", "candidate",
                            {{"level", enclosing.size()},
                             {"accepted", true}});
        }
        if (countStats)
            stats.fused += fusedInto.insert(a).second ? 2 : 1;
        mergeLoops(*a, std::move(siblings[i + 1]));
        siblings.erase(siblings.begin() + i + 1);
    }

    // Recurse: fusion at level l+1 inside every remaining loop. Inner
    // merges within a nest we just fused complete that same fusion and
    // are not counted again (the paper counts fused *nests*).
    for (auto &s : siblings) {
        if (!s->isLoop())
            continue;
        std::vector<Node *> inner = enclosing;
        inner.push_back(s.get());
        bool countInner = countStats && !fusedInto.count(s.get());
        stats += fuseSiblings(prog, s->body, inner, params,
                              requireProfit, countInner);
    }
    return stats;
}

bool
fuseAllInner(const Program &prog, Node &outer,
             const std::vector<Node *> &enclosing,
             const ModelParams &params)
{
    if (!outer.isLoop())
        return false;
    if (outer.body.empty())
        return false;

    bool anyLoop = false;
    bool allLoops = true;
    for (const auto &item : outer.body) {
        if (item->isLoop())
            anyLoop = true;
        else
            allLoops = false;
    }
    if (!anyLoop)
        return true;  // statements only: already perfect here
    if (!allLoops)
        return false;  // mixed statements and loops: cannot perfect

    static obs::Counter &cAttempts =
        obs::counter("pass.fuse.fuse_all_attempts");
    static obs::Counter &cMerged =
        obs::counter("pass.fuse.fuse_all_merged");
    ++cAttempts;

    std::vector<Node *> inner = enclosing;
    inner.push_back(&outer);
    while (outer.body.size() > 1) {
        Node &a = *outer.body[0];
        Node &b = *outer.body[1];
        if (!headersCompatible(a, b) || !fusionLegal(prog, a, b, inner)) {
            if (obs::tracingEnabled()) {
                obs::traceEvent(
                    "pass.fuse", "fuse_all",
                    {{"accepted", false},
                     {"reason", headersCompatible(a, b) ? "dependences"
                                                        : "incompatible"}});
            }
            return false;
        }
        ++cMerged;
        mergeLoops(a, std::move(outer.body[1]));
        outer.body.erase(outer.body.begin() + 1);
    }
    return fuseAllInner(prog, *outer.body[0], inner, params);
}

} // namespace memoria
