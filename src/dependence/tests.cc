#include "dependence/tests.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <numeric>
#include <optional>

#include "harness/fault.hh"
#include "support/logging.hh"

namespace memoria {

namespace {

harness::FaultSite gDepFault("dependence.vectors");

constexpr double kInf = std::numeric_limits<double>::infinity();

/** One common loop shared by the two references. */
struct CommonLoop
{
    const Node *loop = nullptr;
    int64_t step = 1;
};

/** Linear form of (subscriptA - subscriptB) for one dimension. */
struct DimForm
{
    /** coeff of the common loop var in A and in B, per common level. */
    std::vector<std::pair<int64_t, int64_t>> common;
    /** private (non-common) loop vars: (loop node, coeff, depth). */
    struct Priv
    {
        const Node *loop;
        int64_t coeff;
        bool sideA;
        int depth;  ///< position in the owning reference's loop list
    };
    std::vector<Priv> priv;
    /**
     * Symbolic terms: parameters and loop variables defined outside
     * the analyzed scope, with their combined (A minus B) coefficient.
     * Both instances see the same value, so equal coefficients have
     * already cancelled.
     */
    std::vector<std::pair<VarId, int64_t>> syms;
    /** constantA - constantB. */
    int64_t cdiff = 0;

    bool
    usesCommonVars() const
    {
        for (const auto &[a, b] : common)
            if (a != 0 || b != 0)
                return true;
        return false;
    }

    bool
    usesAnyVar() const
    {
        return usesCommonVars() || !priv.empty() || !syms.empty();
    }

    /**
     * Strong SIV: exactly one common level carries equal non-zero
     * coefficients and nothing else appears. Returns the level, or -1.
     */
    int
    strongSivLevel() const
    {
        if (!syms.empty() || !priv.empty())
            return -1;
        int level = -1;
        for (size_t l = 0; l < common.size(); ++l) {
            const auto &[a, b] = common[l];
            if (a == 0 && b == 0)
                continue;
            if (level >= 0 || a != b || a == 0)
                return -1;
            level = static_cast<int>(l);
        }
        return level;
    }
};

/**
 * Feasibility engine for one direction vector: substitute sigma
 * relations (unification for '=', a bounded delta symbol for '<'/'>')
 * and then eliminate loop variables innermost-first through their
 * affine bounds, yielding a numeric range for the subscript difference.
 * Correlated (triangular) bounds are handled exactly because a
 * variable's bound expression substitutes in terms of the *same
 * instance's* outer variables.
 */
class SigmaRange
{
  public:
    /** Symbolic variable identity: a loop instance, a delta symbol for
     *  one level, or a scope-invariant symbol (parameter or
     *  out-of-scope loop variable — same value for both instances). */
    struct Key
    {
        enum class Kind { Loop, Delta, Sym } kind;
        const Node *loop = nullptr;  ///< Loop
        bool sideA = true;           ///< Loop: which instance
        int level = -1;              ///< Delta
        VarId var = kNoVar;          ///< Sym
        int depth = 0;               ///< Loop: elimination priority

        bool
        operator<(const Key &o) const
        {
            if (kind != o.kind)
                return kind < o.kind;
            if (kind == Kind::Loop)
                return std::tie(loop, sideA) < std::tie(o.loop, o.sideA);
            if (kind == Kind::Delta)
                return level < o.level;
            return var < o.var;
        }
    };

    using LinForm = std::map<Key, int64_t>;

    SigmaRange(const Program &prog, const std::vector<CommonLoop> &common,
               const std::vector<Node *> &loopsA,
               const std::vector<Node *> &loopsB,
               const std::vector<Dir> &sigma)
        : prog_(prog), common_(common), loopsA_(loopsA), loopsB_(loopsB),
          sigma_(sigma)
    {
    }

    /** Can the dimension's difference be zero under sigma? */
    bool
    feasible(const DimForm &d)
    {
        LinForm base;
        double lo = static_cast<double>(d.cdiff);
        double hi = lo;
        for (const auto &[v, c] : d.syms) {
            Key k;
            k.kind = Key::Kind::Sym;
            k.var = v;
            base[k] += c;
            if (base[k] == 0)
                base.erase(k);
        }
        // Common levels: aA*iA - aB*iB with the sigma substitution.
        for (size_t l = 0; l < common_.size(); ++l) {
            auto [aA, aB] = d.common[l];
            addLoopTerm(base, common_[l].loop, true, aA,
                        static_cast<int>(l));
            if (aB != 0) {
                if (sigma_[l] == DirEQ) {
                    addLoopTerm(base, common_[l].loop, true, -aB,
                                static_cast<int>(l));
                } else {
                    // iB = iA + delta_l.
                    addLoopTerm(base, common_[l].loop, true, -aB,
                                static_cast<int>(l));
                    Key dk;
                    dk.kind = Key::Kind::Delta;
                    dk.level = static_cast<int>(l);
                    base[dk] -= aB;
                }
            }
        }
        for (const auto &p : d.priv)
            addLoopTerm(base, p.loop, p.sideA, p.coeff, p.depth);

        LinForm loForm = base, hiForm = base;
        // Each side that cannot be fully resolved is unbounded in its
        // own direction; the other side may still prove independence.
        if (!eliminate(loForm, /*wantHi=*/false, lo))
            lo = -kInf;
        if (!eliminate(hiForm, /*wantHi=*/true, hi))
            hi = kInf;
        return lo <= 0.0 && 0.0 <= hi;
    }

  private:
    void
    addLoopTerm(LinForm &f, const Node *loop, bool sideA, int64_t coeff,
                int depth)
    {
        if (coeff == 0)
            return;
        Key k;
        k.kind = Key::Kind::Loop;
        k.loop = loop;
        k.sideA = sideA;
        k.depth = depth;
        f[k] += coeff;
        if (f[k] == 0)
            f.erase(k);
    }

    /** Interval of the delta symbol for one level (iB - iA in values). */
    void
    deltaRange(int level, double &dlo, double &dhi) const
    {
        int64_t step = common_[level].step;
        Dir dir = sigma_[level];
        // iterA < iterB means iB - iA >= step (step>0) or <= step (<0).
        if (dir == DirLT) {
            if (step > 0) {
                dlo = static_cast<double>(step);
                dhi = kInf;
            } else {
                dlo = -kInf;
                dhi = static_cast<double>(step);
            }
        } else {  // DirGT
            if (step > 0) {
                dlo = -kInf;
                dhi = static_cast<double>(-step);
            } else {
                dlo = static_cast<double>(-step);
                dhi = kInf;
            }
        }
        // Clamp by the loop's numeric span when known.
        double span = loopSpan(common_[level].loop);
        if (std::isfinite(span)) {
            dlo = std::max(dlo, -span);
            dhi = std::min(dhi, span);
        }
    }

    /** Numeric width of a loop's value range (may be +inf). */
    double
    loopSpan(const Node *loop) const
    {
        double llo, lhi;
        if (!numericRange(loop, llo, lhi))
            return kInf;
        return lhi - llo;
    }

    /** Numeric value range of a loop variable, via recursive affine
     *  interval arithmetic with parameters at their bound values. */
    bool
    numericRange(const Node *loop, double &lo, double &hi) const
    {
        auto it = rangeCache_.find(loop);
        if (it != rangeCache_.end()) {
            lo = it->second.first;
            hi = it->second.second;
            return std::isfinite(lo) || std::isfinite(hi);
        }
        rangeCache_[loop] = {-kInf, kInf};  // cycle guard
        double l1, h1, l2, h2;
        bool ok = exprRange(loop->lb, loop, l1, h1) &&
                  exprRange(loop->ub, loop, l2, h2);
        if (ok) {
            lo = std::min(l1, l2);
            hi = std::max(h1, h2);
        } else {
            lo = -kInf;
            hi = kInf;
        }
        rangeCache_[loop] = {lo, hi};
        return ok;
    }

    bool
    exprRange(const AffineExpr &e, const Node *context, double &lo,
              double &hi) const
    {
        lo = hi = static_cast<double>(e.constant());
        for (const auto &[v, c] : e.terms()) {
            double vlo, vhi;
            if (prog_.varInfo(v).kind == VarKind::Param) {
                vlo = vhi =
                    static_cast<double>(prog_.varInfo(v).paramValue);
            } else {
                const Node *def = findDefiningLoop(v, context);
                if (!def || !numericRange(def, vlo, vhi))
                    return false;
            }
            double cd = static_cast<double>(c);
            if (c >= 0) {
                lo += cd * vlo;
                hi += cd * vhi;
            } else {
                lo += cd * vhi;
                hi += cd * vlo;
            }
        }
        return true;
    }

    /** The loop defining variable v, searched in both contexts. */
    const Node *
    findDefiningLoop(VarId v, const Node *ignore) const
    {
        for (const auto &cl : common_)
            if (cl.loop != ignore && cl.loop->var == v)
                return cl.loop;
        for (const Node *l : loopsA_)
            if (l != ignore && l->var == v)
                return l;
        for (const Node *l : loopsB_)
            if (l != ignore && l->var == v)
                return l;
        return nullptr;
    }

    /** Side-respecting defining loop of a bound variable; parameters
     *  and out-of-scope loop variables become shared symbols. */
    bool
    resolveBoundVar(VarId v, bool sideA, Key &out) const
    {
        if (prog_.varInfo(v).kind != VarKind::Param) {
            const auto &loops = sideA ? loopsA_ : loopsB_;
            for (size_t i = 0; i < loops.size(); ++i) {
                if (loops[i]->var == v) {
                    out.kind = Key::Kind::Loop;
                    out.loop = loops[i];
                    out.sideA = sideA;
                    out.depth = static_cast<int>(i);
                    return true;
                }
            }
        }
        out.kind = Key::Kind::Sym;
        out.var = v;
        return true;
    }

    /** Level of a loop node among the common loops, or -1. */
    int
    commonLevelOf(const Node *loop) const
    {
        for (size_t l = 0; l < common_.size(); ++l)
            if (common_[l].loop == loop)
                return static_cast<int>(l);
        return -1;
    }

    /**
     * Substitute variable key `k` in `f` by one of its bound
     * expressions, folding the sigma relation for B-side common
     * variables. Returns false on an unresolvable bound.
     */
    bool
    substituteBound(LinForm &f, const Key &k, bool useUpper,
                    double &acc)
    {
        int64_t coeff = f[k];
        f.erase(k);
        const AffineExpr &bound = useUpper ? k.loop->ub : k.loop->lb;
        acc += static_cast<double>(coeff * bound.constant());
        for (const auto &[v, c] : bound.terms()) {
            Key ref;
            if (!resolveBoundVar(v, k.sideA, ref))
                return false;
            int64_t combined = coeff * c;
            if (ref.kind == Key::Kind::Sym) {
                f[ref] += combined;
                if (f[ref] == 0)
                    f.erase(ref);
                continue;
            }
            // A B-side common variable folds through sigma.
            int lvl = ref.sideA ? -1 : commonLevelOf(ref.loop);
            if (!ref.sideA && lvl >= 0) {
                Key aSide = ref;
                aSide.sideA = true;
                aSide.depth = lvl;
                f[aSide] += combined;
                if (f[aSide] == 0)
                    f.erase(aSide);
                if (sigma_[lvl] != DirEQ) {
                    Key dk;
                    dk.kind = Key::Kind::Delta;
                    dk.level = lvl;
                    f[dk] += combined;
                    if (f[dk] == 0)
                        f.erase(dk);
                }
                continue;
            }
            // Normalize A-side common variables' depth.
            if (ref.sideA) {
                int clvl = commonLevelOf(ref.loop);
                if (clvl >= 0)
                    ref.depth = clvl;
            }
            f[ref] += combined;
            if (f[ref] == 0)
                f.erase(ref);
        }
        return true;
    }

    /**
     * Eliminate every loop variable from `f`, innermost first, then
     * fold delta symbols and parameters into `acc`. Maximizes when
     * wantHi, minimizes otherwise. Returns false when a bound cannot
     * be resolved (caller assumes feasibility).
     */
    bool
    eliminate(LinForm &f, bool wantHi, double &acc)
    {
        int guard = 0;
        for (;;) {
            if (++guard > 256)
                return false;
            // Deepest loop variable present.
            const Key *pick = nullptr;
            for (const auto &[k, c] : f) {
                if (k.kind != Key::Kind::Loop)
                    continue;
                if (!pick || k.depth > pick->depth ||
                    (k.depth == pick->depth && k < *pick))
                    pick = &k;
            }
            if (!pick)
                break;
            Key k = *pick;
            int64_t c = f[k];
            bool atValueMax = wantHi ? (c > 0) : (c < 0);
            // For a negative-step loop the DO's first bound (lb) is the
            // value maximum and its second (ub) the minimum.
            bool useUpper =
                k.loop->step > 0 ? atValueMax : !atValueMax;
            if (!substituteBound(f, k, useUpper, acc))
                return false;
        }
        for (const auto &[k, c] : f) {
            if (k.kind == Key::Kind::Sym) {
                if (prog_.varInfo(k.var).kind == VarKind::Param) {
                    acc += static_cast<double>(c) *
                           static_cast<double>(
                               prog_.varInfo(k.var).paramValue);
                    continue;
                }
                // An out-of-scope loop variable with an uncancelled
                // coefficient: its value is unknown -> unbounded.
                return false;
            }
            MEMORIA_ASSERT(k.kind == Key::Kind::Delta,
                           "loop variable survived elimination");
            double dlo, dhi;
            deltaRange(k.level, dlo, dhi);
            double cd = static_cast<double>(c);
            double v = (wantHi == (cd > 0)) ? dhi : dlo;
            acc += cd * v;
            if (!std::isfinite(acc))
                return false;  // unbounded: assume feasible
        }
        return true;
    }

    const Program &prog_;
    const std::vector<CommonLoop> &common_;
    const std::vector<Node *> &loopsA_;
    const std::vector<Node *> &loopsB_;
    const std::vector<Dir> &sigma_;
    mutable std::map<const Node *, std::pair<double, double>> rangeCache_;
};

bool
isCommonVar(const std::vector<CommonLoop> &common, VarId v, size_t *level)
{
    for (size_t l = 0; l < common.size(); ++l) {
        if (common[l].loop->var == v) {
            *level = l;
            return true;
        }
    }
    return false;
}

int
findPrivateLoopDepth(const std::vector<Node *> &loops, size_t commonCount,
                     VarId v, const Node **out)
{
    for (size_t i = commonCount; i < loops.size(); ++i) {
        if (loops[i]->var == v) {
            *out = loops[i];
            return static_cast<int>(i);
        }
    }
    return -1;
}

/** Build the linear form of fA - fB for one subscript dimension. */
DimForm
buildDimForm(const Program &prog, const AffineExpr &fA,
             const std::vector<Node *> &loopsA, const AffineExpr &fB,
             const std::vector<Node *> &loopsB,
             const std::vector<CommonLoop> &common)
{
    DimForm d;
    d.common.assign(common.size(), {0, 0});
    d.cdiff = fA.constant() - fB.constant();

    // A variable is "symbolic" for this pair when it is a parameter or
    // a loop variable defined outside the analyzed scope: both hold the
    // same value for the two instances, so equal coefficients cancel.
    auto isSymbolic = [&](const std::vector<Node *> &loops, VarId v) {
        if (prog.varInfo(v).kind == VarKind::Param)
            return true;
        size_t level = 0;
        const Node *dummy = nullptr;
        return !isCommonVar(common, v, &level) &&
               findPrivateLoopDepth(loops, common.size(), v, &dummy) < 0;
    };

    auto classify = [&](const AffineExpr &f,
                        const std::vector<Node *> &loops, bool isA) {
        for (const auto &[v, c] : f.terms()) {
            size_t level = 0;
            if (isSymbolic(loops, v))
                continue;  // handled below
            if (isCommonVar(common, v, &level)) {
                if (isA)
                    d.common[level].first += c;
                else
                    d.common[level].second += c;
                continue;
            }
            const Node *priv = nullptr;
            int depth =
                findPrivateLoopDepth(loops, common.size(), v, &priv);
            d.priv.push_back({priv, isA ? c : -c, isA, depth});
        }
    };
    classify(fA, loopsA, true);
    classify(fB, loopsB, false);

    // Scope-invariant symbols (parameters and out-of-scope loop
    // variables) hold one value for both instances; matching
    // coefficients cancel and the rest stays symbolic.
    for (const auto &[v, c] : fA.terms()) {
        if (!isSymbolic(loopsA, v))
            continue;
        int64_t combined = c - (isSymbolic(loopsB, v) ? fB.coeff(v) : 0);
        if (combined != 0)
            d.syms.emplace_back(v, combined);
    }
    for (const auto &[v, c] : fB.terms()) {
        if (!isSymbolic(loopsB, v))
            continue;
        if (fA.coeff(v) == 0 && c != 0)
            d.syms.emplace_back(v, -c);
    }
    return d;
}

/** GCD feasibility: some integer assignment can reach cdiff. */
bool
gcdFeasible(const DimForm &d)
{
    int64_t g = 0;
    for (const auto &[a, b] : d.common) {
        g = std::gcd(g, std::abs(a));
        g = std::gcd(g, std::abs(b));
    }
    for (const auto &p : d.priv)
        g = std::gcd(g, std::abs(p.coeff));
    for (const auto &[v, c] : d.syms)
        g = std::gcd(g, std::abs(c));
    if (g == 0)
        return d.cdiff == 0;
    return d.cdiff % g == 0;
}

} // namespace

std::vector<DepVector>
dependenceVectors(const Program &prog, const ArrayRef &refA,
                  const std::vector<Node *> &loopsA, const ArrayRef &refB,
                  const std::vector<Node *> &loopsB, bool sameOccurrence)
{
    gDepFault.fireNoDiag();

    if (refA.array != refB.array)
        return {};

    // Common enclosing loops: longest shared prefix by node identity.
    size_t nCommon = 0;
    while (nCommon < loopsA.size() && nCommon < loopsB.size() &&
           loopsA[nCommon] == loopsB[nCommon])
        ++nCommon;

    std::vector<DepVector> out;
    std::vector<CommonLoop> common;
    common.reserve(nCommon);
    for (size_t l = 0; l < nCommon; ++l)
        common.push_back({loopsA[l], loopsA[l]->step});

    auto conservative = [&]() {
        // Unanalyzable: every direction combination is possible, except
        // all-equals for a self pair.
        DepVector v;
        v.levels.assign(nCommon, DepLevel::dir(kDirAll));
        if (sameOccurrence) {
            if (nCommon == 0)
                return;  // a single access depends on nothing
            DepVector lt = v, gt = v, eqRest = v;
            lt.levels[0] = DepLevel::dir(DirLT);
            gt.levels[0] = DepLevel::dir(DirGT);
            eqRest.levels[0] = DepLevel::dir(DirEQ);
            out.push_back(lt);
            out.push_back(gt);
            if (nCommon > 1)
                out.push_back(eqRest);
        } else {
            out.push_back(v);
        }
    };

    if (!refA.isAffine() || !refB.isAffine() ||
        refA.subs.size() != refB.subs.size()) {
        conservative();
        return out;
    }

    // Build per-dimension linear forms; run sigma-independent tests.
    std::vector<DimForm> dims;
    std::vector<const DimForm *> complexDims;
    std::vector<std::optional<int64_t>> pinnedDist(nCommon, std::nullopt);

    dims.reserve(refA.subs.size());
    for (size_t k = 0; k < refA.subs.size(); ++k) {
        dims.push_back(buildDimForm(prog, refA.subs[k].affine, loopsA,
                                    refB.subs[k].affine, loopsB, common));
    }

    for (const auto &d : dims) {
        if (!d.usesAnyVar()) {
            // ZIV: constant difference.
            if (d.cdiff != 0)
                return {};
            continue;  // no constraint
        }
        if (!gcdFeasible(d))
            return {};
        int siv = d.strongSivLevel();
        if (siv >= 0) {
            int64_t a = d.common[siv].first;
            // a*iA + cA = a*iB + cB  =>  iB - iA = cdiff / a.
            if (d.cdiff % a != 0)
                return {};
            int64_t valueDist = d.cdiff / a;  // iB - iA in index values
            int64_t step = common[siv].step;
            if (valueDist % step != 0)
                return {};
            // Iteration distance sink-minus-source: iterB - iterA.
            int64_t iterDist = valueDist / step;
            if (pinnedDist[siv] && *pinnedDist[siv] != iterDist)
                return {};
            pinnedDist[siv] = iterDist;
        } else {
            complexDims.push_back(&d);
        }
    }

    // Distances outside the loop's numeric span are impossible.
    for (size_t l = 0; l < nCommon; ++l) {
        if (!pinnedDist[l])
            continue;
        const Node *loop = common[l].loop;
        if (loop->lb.isConstant() && loop->ub.isConstant()) {
            int64_t span = std::abs(loop->ub.constant() -
                                    loop->lb.constant()) /
                           std::abs(common[l].step);
            if (std::abs(*pinnedDist[l]) > span)
                return {};
        }
    }

    // Enumerate direction vectors consistent with the pinned distances;
    // range-check the complex dimensions per vector.
    std::vector<std::vector<Dir>> perLevel(nCommon);
    for (size_t l = 0; l < nCommon; ++l) {
        if (pinnedDist[l]) {
            int64_t d = *pinnedDist[l];
            perLevel[l] = {d > 0 ? DirLT : (d < 0 ? DirGT : DirEQ)};
        } else {
            perLevel[l] = {DirLT, DirEQ, DirGT};
        }
    }

    std::vector<Dir> sigma(nCommon, DirEQ);
    std::function<void(size_t)> enumerate = [&](size_t l) {
        if (l == nCommon) {
            bool allEq = true;
            for (size_t i = 0; i < nCommon; ++i)
                if (sigma[i] != DirEQ)
                    allEq = false;
            if (sameOccurrence && allEq)
                return;
            if (!complexDims.empty()) {
                SigmaRange engine(prog, common, loopsA, loopsB, sigma);
                for (const DimForm *d : complexDims)
                    if (!engine.feasible(*d))
                        return;
            }
            DepVector v;
            v.levels.reserve(nCommon);
            for (size_t i = 0; i < nCommon; ++i) {
                if (pinnedDist[i])
                    v.levels.push_back(DepLevel::exact(*pinnedDist[i]));
                else
                    v.levels.push_back(DepLevel::dir(sigma[i]));
            }
            out.push_back(std::move(v));
            return;
        }
        for (Dir dir : perLevel[l]) {
            sigma[l] = dir;
            enumerate(l + 1);
        }
    };
    enumerate(0);
    return out;
}

} // namespace memoria
