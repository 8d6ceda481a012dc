/**
 * @file
 * Loop permutation into memory order (Section 4.1).
 *
 * Permute ranks the loops of a perfect nest by LoopCost and reorders
 * them so the loop with the most reuse is innermost ("memory order").
 * When memory order is illegal it finds the nearest legal permutation,
 * preferring the most desirable legal inner loop, and may apply loop
 * reversal as an enabler. Both rectangular and triangular bound
 * exchanges are supported; anything else counts as "bounds too complex",
 * the paper's third failure category.
 */

#ifndef MEMORIA_TRANSFORM_PERMUTE_HH
#define MEMORIA_TRANSFORM_PERMUTE_HH

#include <vector>

#include "ir/program.hh"
#include "model/loopcost.hh"

namespace memoria {

/** Why a nest could not be put in memory order. */
enum class PermuteFail
{
    None,          ///< memory order achieved (or already present)
    Dependences,   ///< no legal permutation reaches memory order
    Bounds,        ///< legal by dependences, but bounds too complex
};

/** Printable name of a failure reason ("none"/"dependences"/"bounds"). */
const char *permuteFailName(PermuteFail f);

/** Outcome of one Permute invocation. */
struct PermuteResult
{
    /** The nest's loop order was changed. */
    bool changed = false;

    /** The nest was already fully in memory order. */
    bool alreadyMemoryOrder = false;

    /** The final order is full memory order. */
    bool achievedMemoryOrder = false;

    /** The most desirable inner loop ended up innermost. */
    bool innerInMemoryOrder = false;

    /** The inner loop was already correctly placed beforehand. */
    bool innerAlreadyMemoryOrder = false;

    /** Reversal was applied to enable the permutation. */
    bool usedReversal = false;

    PermuteFail fail = PermuteFail::None;
};

/**
 * Permute the perfect chain starting at `chainRoot` toward memory order.
 *
 * `analysis` must be a NestAnalysis rooted at the same node; it supplies
 * LoopCost, memory order and the dependence edges. The transformation
 * mutates the loop headers in place (node identity of the chain is
 * preserved; headers move between nodes). When no legal placement
 * reaches memory order, one loop may be reversed (reverseLoop) to
 * enable it.
 */
PermuteResult permuteToMemoryOrder(const NestAnalysis &analysis,
                                   Node *chainRoot);

/**
 * Permute the chain into memory order IGNORING dependence legality
 * (bounds exchangeability still applies). This builds the paper's
 * *ideal* program of Section 5.2 — the best locality achievable if
 * correctness could be ignored. Returns true when the order changed.
 */
bool permuteIgnoringLegality(const NestAnalysis &analysis,
                             Node *chainRoot);

/**
 * Apply an explicit permutation to the perfect chain at `chainRoot`
 * (slot i receives the original level perm[i]) by exchanging adjacent
 * headers. Rectangular pairs swap headers; triangular pairs (inner
 * bound using the outer variable with coefficient one) use the standard
 * min/max exchange when it simplifies statically. No dependence check —
 * callers are responsible for legality. Returns false (nest untouched)
 * when the bounds cannot be exchanged.
 */
bool applyPermutation(Node *chainRoot, const std::vector<int> &perm);

} // namespace memoria

#endif // MEMORIA_TRANSFORM_PERMUTE_HH
