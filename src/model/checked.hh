/**
 * @file
 * Overflow-guarded arithmetic for the symbolic cost model.
 *
 * Stride and trip-count math multiplies user-controlled quantities
 * (steps, subscript coefficients, loop bounds); a hostile or merely
 * huge input program can overflow int64 or push a Poly coefficient to
 * infinity. These helpers saturate instead of wrapping (signed overflow
 * is UB) and emit a one-time warning per process so a clamped cost is
 * visible but not noisy. Saturated costs stay ordered sensibly — a
 * clamped value compares as "enormous", which is the right answer for
 * a cost model choosing the cheaper alternative.
 */

#ifndef MEMORIA_MODEL_CHECKED_HH
#define MEMORIA_MODEL_CHECKED_HH

#include <cstdint>

#include "support/poly.hh"

namespace memoria {

/** a * b, saturating at the int64 limits on overflow. */
int64_t checkedMul(int64_t a, int64_t b);

/** |a|, saturating at INT64_MAX (|INT64_MIN| overflows). */
int64_t checkedAbs(int64_t a);

/** Clamp non-finite coefficients to a huge finite magnitude. */
Poly saturatePoly(Poly p);

/** p.eval(n), clamped to a finite value. */
double checkedEval(const Poly &p, double n);

} // namespace memoria

#endif // MEMORIA_MODEL_CHECKED_HH
