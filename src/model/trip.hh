/**
 * @file
 * Symbolic trip counts and bound ranges as cost polynomials.
 */

#ifndef MEMORIA_MODEL_TRIP_HH
#define MEMORIA_MODEL_TRIP_HH

#include <map>

#include "ir/program.hh"
#include "model/params.hh"
#include "support/poly.hh"

namespace memoria {

/** A symbolic interval of polynomial bounds. */
struct PolyRange
{
    Poly lo;
    Poly hi;
};

/**
 * Computes symbolic trip counts for loops whose bounds may reference
 * symbolic parameters and outer loop variables (triangular nests).
 *
 * Loop variables are resolved through `loopOf`, a map from VarId to the
 * defining loop node, built from the enclosing-loop context.
 */
class TripModel
{
  public:
    TripModel(const Program &prog, ModelParams params);

    /** Register the defining loop of a variable (outer context).
     *  Forgets every memoized trip count. */
    void addLoop(const Node *loop);

    /** Symbolic range of an affine expression. */
    PolyRange rangeOf(const AffineExpr &e) const;

    /** Symbolic trip count of a loop: (ub - lb + step) / step, folded
     *  per the triangular policy. Computed once per loop and memoized
     *  until the next addLoop; a caller that rewrites loop headers
     *  builds a new model. */
    Poly trip(const Node *loop) const;

  private:
    PolyRange varRange(VarId v) const;

    const Program &prog_;
    ModelParams params_;
    std::map<VarId, const Node *> loopOf_;
    mutable std::map<const Node *, Poly> tripCache_;
};

} // namespace memoria

#endif // MEMORIA_MODEL_TRIP_HH
