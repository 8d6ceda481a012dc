/**
 * @file
 * The Compound transformation algorithm (Section 4.5, Figure 6).
 *
 * Compound drives permutation, fusion, distribution and reversal to put
 * the loop carrying the most reuse innermost for as many statements as
 * possible: permute into memory order when legal; otherwise fuse all
 * inner loops to create a permutable perfect nest; otherwise distribute
 * at the deepest enabling level and permute the pieces; finally fuse
 * adjacent nests (including the pieces distribution created) to recover
 * group-temporal locality.
 */

#ifndef MEMORIA_TRANSFORM_COMPOUND_HH
#define MEMORIA_TRANSFORM_COMPOUND_HH

#include <functional>
#include <vector>

#include "ir/program.hh"
#include "model/params.hh"
#include "support/poly.hh"
#include "transform/fuse.hh"
#include "transform/permute.hh"

namespace memoria {

/** Per-nest outcome, feeding the Table 2 statistics. */
struct NestReport
{
    int depth = 0;

    bool origMemoryOrder = false;
    bool origInnerMemoryOrder = false;
    bool finalMemoryOrder = false;
    bool finalInnerMemoryOrder = false;

    bool usedPermutation = false;
    bool usedFusion = false;        ///< FuseAll enabled permutation
    bool usedDistribution = false;
    bool usedReversal = false;

    /** Why memory order was missed (when it was). */
    PermuteFail fail = PermuteFail::None;

    /**
     * The transformed nest failed post-transformation verification (IR
     * validation or the differential oracle) and the original was
     * restored. The used* flags above still record what was attempted.
     */
    bool rolledBack = false;

    Poly origCost;
    Poly finalCost;
    Poly idealCost;
};

/**
 * The dominant strategy Compound used on a nest, for provenance
 * reporting: "distribute" > "fuse-all" > "permute" > "none" (fusion and
 * distribution both imply a subsequent permutation attempt).
 */
const char *nestStrategyName(const NestReport &rep);

/** Whole-program outcome of Compound. */
struct CompoundResult
{
    std::vector<NestReport> nests;  ///< one per original depth>=2 nest

    FuseStats fusion;       ///< Table 2: C (candidates) and A (fused)
    int distributions = 0;  ///< Table 2: D
    int resultingNests = 0; ///< Table 2: R

    /** Total loops / nests scanned (depth >= 2 nests only in nests). */
    int totalLoops = 0;
    int totalNests = 0;

    /** Nests rolled back after failing verification (fusion-pass
     *  rollbacks are counted separately in fusion.failVerify). */
    int failVerify = 0;
};

/** Knobs for one Compound run. */
struct CompoundOptions
{
    /**
     * Apply the final profit-driven fusion pass. Turning it off ablates
     * fusion (Section 5.5 measures hit rates with and without it).
     */
    bool applyFusion = true;

    /**
     * Guard every nest transformation (and the final fusion pass) with
     * IR validation plus the differential-equivalence oracle
     * (check/equiv.hh), restoring the original structure when a check
     * fails. Verification never alters the result of a correct
     * transformation — it only converts a miscompile into a no-op.
     * A nest left structurally identical to its snapshot is not
     * checked: it is the reference.
     */
    bool verify = true;

    /**
     * Enable the FuseAll step (Section 4.3.2: fuse inner loops to
     * create a permutable perfect nest). The degradation ladder
     * (harness/ladder.hh) turns this off on its lower rungs.
     */
    bool enableFuseAll = true;

    /** Enable the distribution step (Section 4.4); see enableFuseAll. */
    bool enableDistribution = true;
};

/** Run Compound on a whole program in place. */
CompoundResult compoundTransform(Program &prog, const ModelParams &params,
                                 const CompoundOptions &opts = {});

/**
 * Test-only fault injection: the hook runs on each nest after Compound
 * transforms it and before verification, so tests can corrupt the nest
 * (e.g. force an illegal interchange) and observe the oracle catch it.
 * `ownerBody[index .. index+slots)` is the transformed nest. Pass
 * nullptr to clear. Not thread-safe; never set outside tests.
 */
void setCompoundSabotageHook(
    std::function<void(std::vector<NodePtr> &ownerBody, size_t index,
                       size_t slots)>
        hook);

} // namespace memoria

#endif // MEMORIA_TRANSFORM_COMPOUND_HH
