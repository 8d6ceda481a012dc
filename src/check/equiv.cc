#include "check/equiv.hh"

#include <cstring>
#include <optional>
#include <sstream>

#include "harness/budget.hh"
#include "harness/fault.hh"
#include "interp/interp.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace memoria {

namespace {

/** Diag action reports "not equivalent", exercising the rollback path. */
harness::FaultSite gEquivFault("check.equiv", /*supportsDiag=*/true);

/** Parameters the cost model treats as the abstract size n; fixed
 *  small parameters (constant paramPoly) are semantic and keep their
 *  values. */
bool
isSymbolicParam(const VarInfo &v)
{
    return v.kind == VarKind::Param && !v.paramPoly.isConstant();
}

/**
 * One side of a check bound to one trial size. Binding (construction,
 * one setParams for every symbolic parameter, the tape compile on the
 * first run) happens once; every seed round then re-seeds the data and
 * reruns.
 */
struct BoundSide
{
    Interpreter interp;
    std::optional<Diag> bindError;  ///< setParams fault, if any

    BoundSide(const Program &prog, int64_t size) : interp(prog)
    {
        if (size <= 0)
            return;  // keep the program's own parameter values
        std::vector<std::pair<std::string_view, int64_t>> values;
        for (const auto &v : prog.vars)
            if (isSymbolicParam(v))
                values.emplace_back(v.name, size);
        Status st = interp.setParams(values);
        if (!st.ok())
            bindError = st.diag();
    }

    /** Run under `seed`; the fault that stopped it, if any. */
    std::optional<Diag>
    run(uint64_t seed)
    {
        if (bindError)
            return bindError;
        interp.setInitSeed(seed);
        Status st = interp.run(nullptr);
        if (!st.ok())
            return st.diag();
        return std::nullopt;
    }
};

/** Index of the array named `name`, or -1. */
ArrayId
findArray(const Program &prog, const std::string &name)
{
    for (size_t a = 0; a < prog.arrays.size(); ++a)
        if (prog.arrays[a].name == name)
            return static_cast<ArrayId>(a);
    return -1;
}

/** Mark the arrays a program's statements write to. */
void
markWrites(const Node &n, std::vector<uint8_t> &written)
{
    if (n.isStmt()) {
        ArrayId a = n.stmt.write.array;
        if (a >= 0 && static_cast<size_t>(a) < written.size())
            written[a] = 1;
        return;
    }
    for (const NodePtr &kid : n.body)
        markWrites(*kid, written);
}

} // namespace

EquivResult
checkEquivalence(const Program &reference, const Program &candidate,
                 const EquivOptions &opts)
{
    static obs::Counter &cChecks = obs::counter("check.equiv.checks");
    static obs::Counter &cRuns = obs::counter("check.equiv.runs");
    static obs::Counter &cFail = obs::counter("check.equiv.failures");
    static obs::Counter &cBound = obs::counter("check.equiv.bound_arrays");
    ++cChecks;
    cBound += reference.arrays.size() + candidate.arrays.size();

    EquivResult result;
    if (std::optional<Diag> injected = gEquivFault.fire()) {
        result.equivalent = false;
        result.detail = injected->str();
        ++cFail;
        return result;
    }
    // Candidate arrays by name, resolved once instead of a linear
    // name scan per array per round (corpus programs carry hundreds
    // of declarations).
    std::vector<ArrayId> candIdOf(reference.arrays.size(), -1);
    for (size_t a = 0; a < reference.arrays.size(); ++a) {
        // Transforms preserve declaration order, so the overwhelmingly
        // common case is the identity mapping; only fall back to the
        // name scan when the tables genuinely diverge.
        if (a < candidate.arrays.size() &&
            candidate.arrays[a].name == reference.arrays[a].name)
            candIdOf[a] = static_cast<ArrayId>(a);
        else
            candIdOf[a] = findArray(candidate, reference.arrays[a].name);
    }

    // Contents only need comparing for arrays at least one side
    // writes. Both interpreters fill identical seeded initial data
    // (keyed on array id), so an array neither program stores to —
    // provided it sits at the same id on both sides — is bit-identical
    // by construction and its comparison (and the data fill it would
    // force) is skipped. Id-mismatched arrays keep the full compare.
    std::vector<uint8_t> compare(reference.arrays.size(), 0);
    for (const NodePtr &n : reference.body)
        markWrites(*n, compare);
    {
        std::vector<uint8_t> candWritten(candidate.arrays.size(), 0);
        for (const NodePtr &n : candidate.body)
            markWrites(*n, candWritten);
        for (size_t a = 0; a < reference.arrays.size(); ++a) {
            ArrayId ca = candIdOf[a];
            if (ca >= 0 && candWritten[ca])
                compare[a] = 1;
            if (ca >= 0 && static_cast<size_t>(ca) != a)
                compare[a] = 1;  // different initial contents
        }
    }

    // The first divergence between two completed runs, or empty.
    auto compareArrays = [&](const Interpreter &refInterp,
                             const Interpreter &candInterp, int64_t size,
                             uint64_t seed) -> std::string {
        for (size_t a = 0; a < reference.arrays.size(); ++a) {
            const ArrayDecl &decl = reference.arrays[a];
            if (decl.isRegister)
                continue;  // compiler temporaries, not outputs
            ArrayId ca = candIdOf[a];
            // Diagnostics are built only on mismatch: an ostringstream
            // per array per round dominated the all-equal fast path
            // for corpus-sized symbol tables.
            if (ca < 0) {
                std::ostringstream os;
                os << "array '" << decl.name
                   << "' missing from candidate '" << candidate.name
                   << "'";
                return os.str();
            }
            uint64_t relems =
                refInterp.arrayElems(static_cast<ArrayId>(a));
            uint64_t celems = candInterp.arrayElems(ca);
            if (relems != celems) {
                std::ostringstream os;
                os << "array '" << decl.name << "' has " << relems
                   << " elements in the reference, " << celems
                   << " in the candidate";
                return os.str();
            }
            if (!compare[a])
                continue;  // written by neither; identical
            const auto &rv =
                refInterp.arrayData(static_cast<ArrayId>(a));
            const auto &cv = candInterp.arrayData(ca);
            if (rv.empty() ||
                std::memcmp(rv.data(), cv.data(),
                            rv.size() * sizeof(double)) == 0)
                continue;
            for (size_t i = 0; i < rv.size(); ++i) {
                if (std::memcmp(&rv[i], &cv[i], sizeof(double)) == 0)
                    continue;
                std::ostringstream os;
                os << "array '" << decl.name << "' diverges at "
                   << "element " << i << " (size=" << size
                   << ", seed=" << seed << "): " << rv[i]
                   << " != " << cv[i];
                return os.str();
            }
        }
        return {};
    };

    for (int64_t size : opts.sizes) {
        // Each side is bound to the size once; the candidate only on
        // the first round whose reference runs, so a size the
        // reference cannot run at never binds (or runs) the candidate.
        BoundSide ref(reference, size);
        std::optional<BoundSide> cand;
        // Every seed round of a size executes (even after a failing
        // round), so the executed round set — and with it every obs
        // and sim counter — is a function of the programs alone, not
        // of which round failed first. Rounds fold in seed order.
        for (uint64_t seed : opts.seeds) {
            harness::poll("check.equiv.round");
            if (ref.run(seed)) {
                // The reference itself faults at this trial point:
                // inconclusive, not a miscompile.
                ++result.skippedRuns;
                continue;
            }
            ++cRuns;
            if (!cand)
                cand.emplace(candidate, size);
            std::string detail;
            if (std::optional<Diag> fault = cand->run(seed)) {
                std::ostringstream os;
                os << "candidate '" << candidate.name
                   << "' faults where the reference runs (size=" << size
                   << ", seed=" << seed << "): " << fault->str();
                detail = os.str();
            } else {
                ++result.comparedRuns;
                detail = compareArrays(ref.interp, cand->interp, size,
                                       seed);
            }
            if (result.equivalent && !detail.empty()) {
                result.equivalent = false;
                result.detail = std::move(detail);
            }
        }
        if (!result.equivalent)
            break;
        if (opts.stopAfterConclusiveSize && result.comparedRuns > 0)
            break;
    }

    if (!result.equivalent) {
        ++cFail;
        if (obs::tracingEnabled())
            obs::traceEvent("check", "equiv_failed",
                            {{"reference", reference.name},
                             {"candidate", candidate.name},
                             {"detail", result.detail}});
    }
    return result;
}

} // namespace memoria
