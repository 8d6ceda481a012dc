/**
 * @file
 * Structural IR validator.
 *
 * Checks the invariants every later stage (dependence analysis, cost
 * model, transformations, interpreter) silently assumes, so a buggy
 * transform or a hostile input is rejected with a Diag instead of
 * corrupting downstream analyses or crashing the process:
 *
 *  - symbol-table sanity: non-empty unique names, positive element
 *    sizes, array extents affine over parameters only;
 *  - loop well-formedness: in-range LoopVar indices, non-zero steps,
 *    no variable bound twice along one nesting path, bounds referencing
 *    only parameters and *enclosing* loop variables;
 *  - statement well-formedness: in-range array ids, subscript rank
 *    matching the declaration, affine subscripts over in-scope
 *    variables only, non-null rhs trees with per-operator arity;
 *  - resource caps: maximum nesting depth and node count, so
 *    pathological inputs are rejected rather than exhausting the stack.
 *
 * Runnable after every transform step; `validateProgram` returns every
 * violation found (empty = valid).
 */

#ifndef MEMORIA_CHECK_VALIDATE_HH
#define MEMORIA_CHECK_VALIDATE_HH

#include <vector>

#include "check/diag.hh"
#include "ir/program.hh"

namespace memoria {

/** Resource caps enforced by the validator. */
struct ValidateOptions
{
    /** Maximum loop-nesting depth. */
    int maxDepth = 64;

    /** Maximum total Node count in one program. */
    size_t maxNodes = 1 << 20;
};

/** All structural violations in the program (empty when valid). */
std::vector<Diag> validateProgram(const Program &prog,
                                  const ValidateOptions &opts = {});

} // namespace memoria

#endif // MEMORIA_CHECK_VALIDATE_HH
