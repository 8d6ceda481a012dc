#include "model/loopcost.hh"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "model/checked.hh"
#include "support/logging.hh"
#include "support/stats.hh"

namespace memoria {

namespace {

thread_local uint64_t tlsAnalyses = 0;

} // namespace

const char *
reuseName(Reuse r)
{
    switch (r) {
      case Reuse::Invariant:
        return "invariant";
      case Reuse::Consecutive:
        return "consecutive";
      case Reuse::None:
        return "none";
    }
    return "?";
}

NestAnalysis::NestAnalysis(const Program &prog, Node *root,
                           ModelParams params,
                           const std::vector<Node *> &outerLoops)
    : prog_(prog), params_(params), root_(root),
      graph_(prog, collectStmts(root)), tripModel_(prog, params)
{
    static obs::Counter &cAnalyses = obs::counter("model.nest_analyses");
    ++cAnalyses;
    ++tlsAnalyses;
    for (Node *outer : outerLoops)
        tripModel_.addLoop(outer);
    loops_ = collectLoops(root_);
    for (Node *l : loops_)
        tripModel_.addLoop(l);

    for (const auto &ctx : graph_.scope()) {
        for (const auto &occ : collectRefs(ctx.node->stmt)) {
            NestRef r;
            r.stmt = occ.stmt;
            r.ref = occ.ref;
            r.isWrite = occ.isWrite;
            r.loops = ctx.loops;
            refs_.push_back(std::move(r));
        }
    }
}

const std::vector<SpatialPair> &
NestAnalysis::spatialPairs() const
{
    if (!spatialReady_) {
        spatialPairs_ = computeSpatialPairs(prog_, refs_, params_);
        spatialReady_ = true;
    }
    return spatialPairs_;
}

const NestAnalysis::ScopedRefs &
NestAnalysis::scopedRefs(const Node *inner) const
{
    auto it = scopedRefsCache_.find(inner);
    if (it != scopedRefsCache_.end())
        return it->second;

    ScopedRefs sr;
    for (size_t i = 0; i < refs_.size(); ++i) {
        if (!refs_[i].loops.empty() && refs_[i].loops.back() == inner) {
            sr.refIndices.push_back(static_cast<int>(i));
            sr.subset.push_back(refs_[i]);
        }
    }
    sr.spatial = computeSpatialPairs(prog_, sr.subset, params_);
    return scopedRefsCache_.emplace(inner, std::move(sr)).first->second;
}

const NestAnalysis::ScopedGroups &
NestAnalysis::groupsWithin(const Node *candidate, const Node *inner) const
{
    auto key = std::make_pair(candidate, inner);
    auto it = scopedCache_.find(key);
    if (it != scopedCache_.end())
        return it->second;

    const ScopedRefs &sr = scopedRefs(inner);
    ScopedGroups sg;
    sg.refIndices = sr.refIndices;
    sg.groups = computeRefGroups(prog_, sr.subset, graph_.edges(),
                                 candidate, params_, &sr.spatial);
    static obs::Counter &cComputed =
        obs::counter("model.refgroup.computations");
    static obs::Counter &cFormed =
        obs::counter("model.refgroup.groups_formed");
    ++cComputed;
    cFormed += sg.groups.size();
    return scopedCache_.emplace(key, std::move(sg)).first->second;
}

const std::vector<RefGroup> &
NestAnalysis::groups(const Node *candidate) const
{
    auto it = groupCache_.find(candidate);
    if (it == groupCache_.end()) {
        it = groupCache_
                 .emplace(candidate,
                          computeRefGroups(prog_, refs_, graph_.edges(),
                                           candidate, params_,
                                           &spatialPairs()))
                 .first;
        static obs::Counter &cComputed =
            obs::counter("model.refgroup.computations");
        static obs::Counter &cFormed =
            obs::counter("model.refgroup.groups_formed");
        ++cComputed;
        cFormed += it->second.size();
    }
    return it->second;
}

Reuse
NestAnalysis::classify(const NestRef &ref, const Node *candidate) const
{
    // A loop that does not enclose the reference cannot grant it reuse.
    bool enclosed = std::find(ref.loops.begin(), ref.loops.end(),
                              candidate) != ref.loops.end();
    if (!enclosed)
        return Reuse::None;

    VarId v = candidate->var;
    const auto &subs = ref.ref->subs;
    if (subs.empty())
        return Reuse::None;

    bool anyUse = false;
    bool tailUse = false;  // uses v in subscripts 2..j (or opaque there)
    for (size_t k = 0; k < subs.size(); ++k) {
        bool uses = subs[k].isAffine() ? subs[k].affine.uses(v) : true;
        anyUse = anyUse || uses;
        if (k > 0)
            tailUse = tailUse || uses;
    }
    if (!anyUse)
        return Reuse::Invariant;
    if (tailUse || !subs[0].isAffine())
        return Reuse::None;

    int64_t coeff = subs[0].affine.coeff(v);
    if (coeff == 0)
        return Reuse::None;  // v only in an opaque position
    int64_t stride = checkedAbs(checkedMul(candidate->step, coeff));
    const ArrayDecl &decl = prog_.arrayDecl(ref.ref->array);
    int64_t cls = std::max(1, params_.lineBytes / decl.elemSize);
    return stride < cls ? Reuse::Consecutive : Reuse::None;
}

Poly
NestAnalysis::refCost(const NestRef &ref, const Node *candidate) const
{
    static obs::Counter &cInvariant =
        obs::counter("model.refcost.invariant");
    static obs::Counter &cConsecutive =
        obs::counter("model.refcost.consecutive");
    static obs::Counter &cNone = obs::counter("model.refcost.none");
    switch (classify(ref, candidate)) {
      case Reuse::Invariant:
        ++cInvariant;
        return Poly(1.0);
      case Reuse::Consecutive: {
        ++cConsecutive;
        int64_t coeff = ref.ref->subs[0].affine.coeff(candidate->var);
        int64_t stride = checkedAbs(checkedMul(candidate->step, coeff));
        const ArrayDecl &decl = prog_.arrayDecl(ref.ref->array);
        int64_t cls = std::max(1, params_.lineBytes / decl.elemSize);
        // trip / (cls / stride)
        return tripModel_.trip(candidate) *
               (static_cast<double>(stride) / static_cast<double>(cls));
      }
      case Reuse::None:
        ++cNone;
        break;
    }
    bool enclosed = std::find(ref.loops.begin(), ref.loops.end(),
                              candidate) != ref.loops.end();
    if (enclosed)
        return tripModel_.trip(candidate);
    // Not enclosed: the candidate cannot change this reference's
    // behaviour; charge one line per iteration of its innermost loop so
    // totals stay comparable across candidates (the term is identical
    // for every candidate outside the reference's loops).
    return ref.loops.empty() ? Poly(1.0)
                             : tripModel_.trip(ref.loops.back());
}

Poly
NestAnalysis::loopCost(const Node *candidate) const
{
    auto it = costCache_.find(candidate);
    if (it != costCache_.end())
        return it->second;

    Poly total;
    for (const auto &g : groups(candidate)) {
        const NestRef &rep = refs_[g.representative];
        Poly cost = refCost(rep, candidate);
        for (Node *h : rep.loops) {
            if (h == candidate)
                continue;
            // When the candidate does not enclose the reference, its
            // innermost own loop already contributed through refCost.
            bool enclosed = std::find(rep.loops.begin(), rep.loops.end(),
                                      candidate) != rep.loops.end();
            if (!enclosed && h == rep.loops.back())
                continue;
            cost *= tripModel_.trip(h);
        }
        total += cost;
    }
    costCache_.emplace(candidate, total);
    return total;
}

uint64_t
NestAnalysis::constructedOnThisThread()
{
    return tlsAnalyses;
}

const std::vector<Node *> &
NestAnalysis::memoryOrder() const
{
    if (memoryOrderReady_)
        return memoryOrder_;
    // Evaluate each LoopCost once, then stable-sort positions: the same
    // comparisons as sorting the loops themselves, without a cache
    // lookup and two Poly copies per comparison.
    std::vector<Poly> costs;
    costs.reserve(loops_.size());
    for (const Node *l : loops_)
        costs.push_back(loopCost(l));
    std::vector<size_t> pos(loops_.size());
    std::iota(pos.begin(), pos.end(), size_t{0});
    std::stable_sort(pos.begin(), pos.end(), [&costs](size_t a, size_t b) {
        return costs[a] > costs[b];
    });
    memoryOrder_.reserve(pos.size());
    for (size_t p : pos)
        memoryOrder_.push_back(loops_[p]);
    memoryOrderReady_ = true;
    return memoryOrder_;
}

namespace {

/** The loops that directly contain statements. */
std::vector<const Node *>
innermostLoops(const NestAnalysis &na)
{
    std::vector<const Node *> out;
    for (const auto &ref : na.refs()) {
        if (ref.loops.empty())
            continue;
        const Node *l = ref.loops.back();
        if (std::find(out.begin(), out.end(), l) == out.end())
            out.push_back(l);
    }
    return out;
}

/** Cost of the statement sub-nest bottoming out at `inner`, grouped
 *  within itself, evaluated with `candidate` as the innermost loop. */
Poly
partialCost(const NestAnalysis &na, const Node *candidate,
            const Node *inner)
{
    // When every reference bottoms out at `inner`, the sub-nest is the
    // whole nest: the same references in the same order, the same
    // edges and spatial pairs, so the groups and the sum below are
    // LoopCost's own, term for term. Reuse its cached value.
    const auto &refs = na.refs();
    if (std::all_of(refs.begin(), refs.end(), [inner](const NestRef &r) {
            return !r.loops.empty() && r.loops.back() == inner;
        }))
        return na.loopCost(candidate);

    Poly total;
    const auto &sg = na.groupsWithin(candidate, inner);
    for (const auto &g : sg.groups) {
        const NestRef &rep =
            na.refs()[sg.refIndices[g.representative]];
        Poly cost = na.refCost(rep, candidate);
        bool enclosed = std::find(rep.loops.begin(), rep.loops.end(),
                                  candidate) != rep.loops.end();
        for (Node *h : rep.loops) {
            if (h == candidate)
                continue;
            if (!enclosed && h == rep.loops.back())
                continue;  // already charged through refCost
            cost *= na.trip(h);
        }
        total += cost;
    }
    return total;
}

} // namespace

Poly
nestCost(const NestAnalysis &na)
{
    Poly total;
    for (const Node *inner : innermostLoops(na))
        total += partialCost(na, inner, inner);
    return total;
}

Poly
idealNestCost(const NestAnalysis &na)
{
    Poly total;
    for (const Node *inner : innermostLoops(na)) {
        bool first = true;
        Poly best;
        for (const Node *cand : na.loops()) {
            Poly c = partialCost(na, cand, inner);
            if (first || c < best) {
                best = c;
                first = false;
            }
        }
        total += best;
    }
    return total;
}

bool
innermostInMemoryOrder(const NestAnalysis &na)
{
    const auto &mo = na.memoryOrder();
    if (mo.empty())
        return true;
    const Node *cheapest = mo.back();
    for (const auto &kid : cheapest->body)
        if (kid->isLoop())
            return false;
    return true;
}

bool
nestInMemoryOrder(const NestAnalysis &na)
{
    return na.memoryOrder() == na.loops();
}

} // namespace memoria
