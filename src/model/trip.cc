#include "model/trip.hh"

#include "model/checked.hh"
#include "support/logging.hh"
#include "support/stats.hh"

namespace memoria {

TripModel::TripModel(const Program &prog, ModelParams params)
    : prog_(prog), params_(params)
{
}

void
TripModel::addLoop(const Node *loop)
{
    MEMORIA_ASSERT(loop->isLoop(), "TripModel::addLoop needs a loop");
    loopOf_[loop->var] = loop;
    tripCache_.clear();
}

PolyRange
TripModel::varRange(VarId v) const
{
    const VarInfo &info = prog_.varInfo(v);
    if (info.kind == VarKind::Param)
        return {info.paramPoly, info.paramPoly};

    auto it = loopOf_.find(v);
    MEMORIA_ASSERT(it != loopOf_.end(),
                   "no defining loop registered for variable "
                       << info.name);
    const Node *loop = it->second;
    PolyRange lbR = rangeOf(loop->lb);
    PolyRange ubR = rangeOf(loop->ub);
    if (params_.policy == TriangularPolicy::Average) {
        // Point estimate: the mean of the (recursively averaged)
        // bounds, so a triangular DO J = K+1, I gets E[I] - E[K] + 1
        // iterations.
        Poly mid = (lbR.lo + ubR.hi) / 2.0;
        return {mid, mid};
    }
    // Values visited lie between the bounds regardless of step sign.
    Poly lo = lbR.lo <= ubR.lo ? lbR.lo : ubR.lo;
    Poly hi = lbR.hi >= ubR.hi ? lbR.hi : ubR.hi;
    return {lo, hi};
}

PolyRange
TripModel::rangeOf(const AffineExpr &e) const
{
    PolyRange r{Poly(static_cast<double>(e.constant())),
                Poly(static_cast<double>(e.constant()))};
    for (const auto &[v, c] : e.terms()) {
        PolyRange vr = varRange(v);
        double cd = static_cast<double>(c);
        if (c >= 0) {
            r.lo += vr.lo * cd;
            r.hi += vr.hi * cd;
        } else {
            r.lo += vr.hi * cd;
            r.hi += vr.lo * cd;
        }
    }
    return r;
}

Poly
TripModel::trip(const Node *loop) const
{
    auto it = tripCache_.find(loop);
    if (it != tripCache_.end())
        return it->second;
    static obs::Counter &cComputed = obs::counter("model.trip.computations");
    ++cComputed;

    PolyRange lbR = rangeOf(loop->lb);
    PolyRange ubR = rangeOf(loop->ub);
    double step = static_cast<double>(loop->step);

    Poly lb, ub;
    if (params_.policy == TriangularPolicy::Average) {
        lb = (lbR.lo + lbR.hi) / 2.0;
        ub = (ubR.lo + ubR.hi) / 2.0;
    } else if (loop->step > 0) {
        // Maximize (ub - lb + step) / step.
        lb = lbR.lo;
        ub = ubR.hi;
    } else {
        lb = lbR.hi;
        ub = ubR.lo;
    }
    return tripCache_
        .emplace(loop, saturatePoly((ub - lb + Poly(step)) / step))
        .first->second;
}

} // namespace memoria
