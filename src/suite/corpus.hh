/**
 * @file
 * The synthetic benchmark corpus standing in for the paper's test suite.
 *
 * The paper evaluates 35 programs from the Perfect club, SPEC, the NAS
 * kernels and miscellaneous sources. Those Fortran sources and inputs
 * are not available here, so each program is replaced by a synthetic
 * analogue whose loop-nest population is generated to mirror the
 * characteristics Table 2 reports for it: the fraction of nests already
 * in memory order, the fraction that can be permuted into it, the
 * fraction blocked by dependences / complex bounds / unanalyzable
 * subscripts, and the fusion and distribution opportunity counts. This
 * preserves what the paper's whole-suite experiments measure — the
 * optimizer's behaviour over a population of nests — rather than the
 * numeric workloads themselves (see DESIGN.md, Substitutions).
 */

#ifndef MEMORIA_SUITE_CORPUS_HH
#define MEMORIA_SUITE_CORPUS_HH

#include <string>
#include <vector>

#include "ir/program.hh"

namespace memoria {

/** Targets for one synthetic program, derived from the paper's Table 2. */
struct CorpusSpec
{
    std::string name;
    std::string group;  ///< Perfect / SPEC / NAS / Misc

    int lines = 0;     ///< non-comment lines (paper, informational)
    int loops = 0;     ///< total loops (paper)
    int nests = 0;     ///< depth>=2 nests (paper)

    int pctOrig = 0;   ///< % nests originally in memory order
    int pctPerm = 0;   ///< % nests permutable into memory order
    // remainder fails

    int pctInnerOrig = 0;  ///< % nests with the inner loop already right
    int pctInnerPerm = 0;  ///< % nests whose inner loop gets fixed

    int fusionCandidates = 0;  ///< Table 2 column C
    int fusionApplied = 0;     ///< Table 2 column A
    int distributions = 0;     ///< Table 2 column D
    int distResulting = 0;     ///< Table 2 column R

    /** Failures stem from index arrays / linearized subscripts (Cgm,
     *  Mg3d style) rather than ordinary dependences. */
    bool opaqueStyle = false;
};

/** The 35 program specifications, in the paper's order. */
const std::vector<CorpusSpec> &corpusSpecs();

/** Build the synthetic program for one spec. `extent` is the loop
 *  extent used throughout (kept small so cache simulation stays fast). */
Program buildCorpusProgram(const CorpusSpec &spec, int64_t extent = 16);

} // namespace memoria

#endif // MEMORIA_SUITE_CORPUS_HH
