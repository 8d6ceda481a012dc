/**
 * @file
 * Differential-equivalence oracle.
 *
 * Dynamically checks what the static legality analysis claims, in the
 * spirit of Fauzia et al.'s "Beyond Reuse Distance Analysis": interpret
 * the original and the transformed program on small concrete sizes
 * under several seeded array initializations and compare the final
 * array states element-for-element. Disagreement on any run is proof
 * of a miscompile; agreement on every run is strong (not absolute)
 * evidence of equivalence.
 *
 * Protocol per (size, seed) round:
 *  - symbolic parameters are rebound to the trial size (parameters the
 *    cost model treats as fixed constants keep their values — they are
 *    semantic, e.g. a 5-wide leading dimension);
 *  - if the *reference* program faults (out of bounds at a shrunken
 *    size, say), the round is inconclusive and skipped;
 *  - if the reference runs but the *candidate* faults, that is a
 *    verification failure — the transformation introduced the fault;
 *  - otherwise the contents of every array present in both programs
 *    (matched by name, register temporaries excluded) must agree
 *    bit-for-bit. Initial data is integer-valued, so exact comparison
 *    does not trip over rounding; see interp/interp.cc.
 *
 * Each side is bound once per trial size — one Interpreter, its
 * parameters set and its tape compiled once — and rerun under every
 * seed through Interpreter::setInitSeed, which refills only the data.
 * Binding, validation and the comparison are O(declarations). A corpus
 * program declares about a hundred arrays while one of its nests
 * touches a handful, so Compound's per-nest checks hand this oracle
 * nest-local programs that declare only the arrays either version of
 * the nest references (transform/compound.cc); `check.equiv.bound_arrays`
 * counts the declarations of both programs of every check.
 */

#ifndef MEMORIA_CHECK_EQUIV_HH
#define MEMORIA_CHECK_EQUIV_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/diag.hh"
#include "ir/program.hh"

namespace memoria {

/** Knobs for one equivalence check. */
struct EquivOptions
{
    /**
     * Trial sizes for symbolic parameters. 0 means "keep the program's
     * own parameter values" — always safe, since a well-formed program
     * is in-bounds at its own defaults.
     */
    std::vector<int64_t> sizes = {0, 6};

    /** Initialization seeds tried at every size. */
    std::vector<uint64_t> seeds = {0, 0x5eed1, 0x5eed2};

    /**
     * Stop after the first size that produced at least one compared
     * run. Lets callers list a cheap shrunken size first and the
     * (possibly large) program default as a fallback, paying for the
     * fallback only when shrinking was inconclusive.
     */
    bool stopAfterConclusiveSize = false;
};

/** Outcome of a differential check. */
struct EquivResult
{
    bool equivalent = true;

    /** Rounds actually compared (inconclusive rounds excluded). */
    int comparedRuns = 0;

    /** Rounds skipped because the reference program faulted. */
    int skippedRuns = 0;

    /** First divergence, when !equivalent. */
    std::string detail;
};

/**
 * Differentially compare `reference` against `candidate`.
 * Both are interpreted; neither is mutated.
 */
EquivResult checkEquivalence(const Program &reference,
                             const Program &candidate,
                             const EquivOptions &opts = {});

} // namespace memoria

#endif // MEMORIA_CHECK_EQUIV_HH
