#include "transform/permute.hh"

#include <algorithm>
#include <numeric>

#include "dependence/legality.hh"
#include "harness/budget.hh"
#include "harness/fault.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"
#include "transform/reverse.hh"

namespace memoria {

namespace {
harness::FaultSite gPermuteFault("transform.permute");
} // namespace

const char *
permuteFailName(PermuteFail f)
{
    switch (f) {
      case PermuteFail::None:
        return "none";
      case PermuteFail::Dependences:
        return "dependences";
      case PermuteFail::Bounds:
        return "bounds";
    }
    return "?";
}

namespace {

/** "2,0,1"-style rendering of a permutation for trace payloads. */
std::string
permString(const std::vector<int> &perm)
{
    std::string s;
    for (size_t i = 0; i < perm.size(); ++i) {
        if (i)
            s += ",";
        s += std::to_string(perm[i]);
    }
    return s;
}

/** A loop header, detached from its tree position. */
struct Header
{
    VarId var = kNoVar;
    AffineExpr lb;
    AffineExpr ub;
    int64_t step = 1;
};

Header
headerOf(const Node &n)
{
    return {n.var, n.lb, n.ub, n.step};
}

void
setHeader(Node &n, const Header &h)
{
    n.var = h.var;
    n.lb = h.lb;
    n.ub = h.ub;
    n.step = h.step;
}

/**
 * Exchange two adjacent headers (hu outer, hv inner) in place.
 * Returns false (leaving both untouched) when the bounds are too
 * complex for a rectangular or triangular exchange.
 */
bool
exchangeHeaders(Header &hu, Header &hv)
{
    int64_t cLo = hv.lb.coeff(hu.var);
    int64_t cHi = hv.ub.coeff(hu.var);

    if (cLo == 0 && cHi == 0) {
        std::swap(hu, hv);
        return true;
    }
    if (hu.step != 1 || hv.step != 1)
        return false;

    if (cHi == 1 && cLo == 0) {
        // Upper-triangular: lbV <= v <= u + k.
        AffineExpr k = hv.ub.withoutVar(hu.var);
        AffineExpr slack = hv.lb - (hu.lb + k);
        if (!slack.isConstant() || slack.constant() < 0)
            return false;
        Header newOuter{hv.var, hv.lb, hu.ub + k, 1};
        Header newInner{hu.var, AffineExpr::makeVar(hv.var) - k, hu.ub,
                        1};
        hu = newOuter;
        hv = newInner;
        return true;
    }
    if (cLo == 1 && cHi == 0) {
        // Lower-triangular: u + k <= v <= ubV.
        AffineExpr k = hv.lb.withoutVar(hu.var);
        AffineExpr slack = (hu.ub + k) - hv.ub;
        if (!slack.isConstant() || slack.constant() < 0)
            return false;
        Header newOuter{hv.var, hu.lb + k, hv.ub, 1};
        Header newInner{hu.var, hu.lb, AffineExpr::makeVar(hv.var) - k,
                        1};
        hu = newOuter;
        hv = newInner;
        return true;
    }
    return false;
}

/**
 * Reorder `headers` so that slot i holds original header perm[i],
 * performing pairwise exchanges. Returns false when any required
 * exchange is too complex (headers left in an unspecified but
 * consistent intermediate state — callers work on copies).
 */
bool
applyHeaderPermutation(std::vector<Header> &headers,
                       const std::vector<int> &perm)
{
    int d = static_cast<int>(headers.size());
    std::vector<int> ids(d);
    std::iota(ids.begin(), ids.end(), 0);

    for (int pos = 0; pos < d; ++pos) {
        int cur = pos;
        while (ids[cur] != perm[pos])
            ++cur;
        // Bubble the wanted header outward to `pos`.
        for (int k = cur; k > pos; --k) {
            if (!exchangeHeaders(headers[k - 1], headers[k]))
                return false;
            std::swap(ids[k - 1], ids[k]);
        }
    }
    return true;
}

/** Permutations of 0..d-1, identity first. */
std::vector<std::vector<int>>
allPermutations(int d)
{
    std::vector<int> p(d);
    std::iota(p.begin(), p.end(), 0);
    std::vector<std::vector<int>> out;
    do {
        out.push_back(p);
    } while (std::next_permutation(p.begin(), p.end()));
    return out;
}

std::vector<Header>
headersOf(const std::vector<Node *> &chain)
{
    std::vector<Header> h;
    for (Node *l : chain)
        h.push_back(headerOf(*l));
    return h;
}

/** Whether `perm` can reorder `headers` (a copy) by bound exchanges. */
bool
exchangeable(std::vector<Header> headers, const std::vector<int> &perm)
{
    return applyHeaderPermutation(headers, perm);
}

/**
 * The chain's memory order as a permutation: slot i takes chain index
 * target[i]. Loops outside the chain are skipped.
 */
std::vector<int>
memoryOrderTarget(const NestAnalysis &analysis,
                  const std::vector<Node *> &chain)
{
    std::vector<int> target;
    for (Node *l : analysis.memoryOrder()) {
        auto it = std::find(chain.begin(), chain.end(), l);
        if (it != chain.end())
            target.push_back(static_cast<int>(it - chain.begin()));
    }
    MEMORIA_ASSERT(target.size() == chain.size(),
                   "memory order does not cover the chain");
    return target;
}

} // namespace

bool
applyPermutation(Node *chainRoot, const std::vector<int> &perm)
{
    std::vector<Node *> chain = perfectChain(chainRoot);
    MEMORIA_ASSERT(perm.size() == chain.size(),
                   "permutation size mismatch");
    std::vector<Header> h = headersOf(chain);
    if (!applyHeaderPermutation(h, perm))
        return false;
    for (size_t i = 0; i < chain.size(); ++i)
        setHeader(*chain[i], h[i]);
    return true;
}

bool
permuteIgnoringLegality(const NestAnalysis &analysis, Node *chainRoot)
{
    std::vector<Node *> chain = perfectChain(chainRoot);
    if (chain.size() < 2)
        return false;
    std::vector<int> target = memoryOrderTarget(analysis, chain);
    if (std::is_sorted(target.begin(), target.end()))
        return false;  // already in memory order
    // False when the bounds are too complex even for the ideal program.
    return applyPermutation(chainRoot, target);
}

PermuteResult
permuteToMemoryOrder(const NestAnalysis &analysis, Node *chainRoot)
{
    gPermuteFault.fireNoDiag();
    harness::poll("transform.permute");

    PermuteResult result;

    std::vector<Node *> chain = perfectChain(chainRoot);
    int d = static_cast<int>(chain.size());
    if (d < 1)
        return result;

    // Desired permutation: position i takes chain index target[i].
    std::vector<int> target = memoryOrderTarget(analysis, chain);
    std::vector<int> moIndexOf(d);  // chain index -> rank in memory order
    for (int i = 0; i < d; ++i)
        moIndexOf[target[i]] = i;

    std::vector<int> identity(d);
    std::iota(identity.begin(), identity.end(), 0);

    result.alreadyMemoryOrder = (target == identity);
    result.innerAlreadyMemoryOrder = (target[d - 1] == d - 1);
    if (result.alreadyMemoryOrder) {
        result.innerInMemoryOrder = true;
        result.achievedMemoryOrder = true;
        return result;
    }

    const auto &edges = analysis.graph().edges();

    const std::vector<Header> baseHeaders = headersOf(chain);

    // Rank candidate permutations: prefer the most desirable inner
    // loop, then the next position outward, etc. (Section 4.1).
    auto score = [&](const std::vector<int> &perm) {
        std::vector<int> s(d);
        for (int i = 0; i < d; ++i)
            s[i] = moIndexOf[perm[d - 1 - i]];
        return s;
    };

    std::vector<int> best = identity;
    std::vector<int> bestScore = score(identity);
    bool targetLegalByDeps = false;

    static obs::Counter &cInvocations =
        obs::counter("pass.permute.invocations");
    static obs::Counter &cConsidered =
        obs::counter("pass.permute.candidates_considered");
    static obs::Counter &cViable =
        obs::counter("pass.permute.candidates_viable");
    ++cInvocations;

    if (d <= 6) {
        for (const auto &perm : allPermutations(d)) {
            if (perm == identity)
                continue;
            ++cConsidered;
            bool legal = permutationLegal(edges, perm);
            if (legal && perm == target)
                targetLegalByDeps = true;
            bool viable = legal && exchangeable(baseHeaders, perm);
            if (obs::tracingEnabled()) {
                obs::traceEvent("pass.permute", "candidate",
                                {{"perm", permString(perm)},
                                 {"target", perm == target},
                                 {"legal_deps", legal},
                                 {"bounds_ok", viable},
                                 {"accepted", viable}});
            }
            if (!viable)
                continue;
            ++cViable;
            auto s = score(perm);
            if (s > bestScore) {
                bestScore = s;
                best = perm;
            }
        }
    }

    // Reversal as an enabler: only chased for the full memory-order
    // target, single reversed loop at a time (the paper found reversal
    // never helped; we keep the capability faithful but narrow). The
    // loop is reversed in place for the bounds check and reversed back
    // (reversal is its own inverse) when the exchange still fails.
    if (best != target) {
        for (int l = 0; l < d && !result.usedReversal; ++l) {
            if (!permutationLegal(edgesWithReversedLevels(edges, {l}),
                                  target))
                continue;
            reverseLoop(*chain[l]);
            if (exchangeable(headersOf(chain), target)) {
                result.usedReversal = true;
                best = target;
            } else {
                reverseLoop(*chain[l]);
            }
        }
    }

    if (best == identity) {
        result.fail = targetLegalByDeps ? PermuteFail::Bounds
                                        : PermuteFail::Dependences;
        // Even unchanged, the inner loop may already be the best one.
        result.innerInMemoryOrder = result.innerAlreadyMemoryOrder;
        ++obs::counter(result.fail == PermuteFail::Bounds
                           ? "pass.permute.fail_bounds"
                           : "pass.permute.fail_dependences");
        if (obs::tracingEnabled()) {
            obs::traceEvent("pass.permute", "result",
                            {{"changed", false},
                             {"fail", permuteFailName(result.fail)}});
        }
        return result;
    }

    // Apply on the real headers (any enabling reversal is already in).
    bool ok = applyPermutation(chainRoot, best);
    MEMORIA_ASSERT(ok, "bounds exchange failed after dry run succeeded");

    result.changed = true;
    result.achievedMemoryOrder = (best == target);
    result.innerInMemoryOrder = (best[d - 1] == target[d - 1]);
    if (!result.achievedMemoryOrder) {
        result.fail = targetLegalByDeps ? PermuteFail::Bounds
                                        : PermuteFail::Dependences;
    }

    static obs::Counter &cApplied = obs::counter("pass.permute.applied");
    ++cApplied;
    if (result.usedReversal)
        ++obs::counter("pass.permute.reversals");
    if (obs::tracingEnabled()) {
        obs::traceEvent("pass.permute", "result",
                        {{"changed", true},
                         {"perm", permString(best)},
                         {"achieved_memory_order",
                          result.achievedMemoryOrder},
                         {"inner_in_memory_order",
                          result.innerInMemoryOrder},
                         {"used_reversal", result.usedReversal},
                         {"fail", permuteFailName(result.fail)}});
    }
    return result;
}

} // namespace memoria
