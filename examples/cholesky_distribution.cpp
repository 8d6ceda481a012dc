/**
 * @file
 * The Figure 7 story: Cholesky factorization cannot be permuted as a
 * whole (it is an imperfect, triangular nest), but distributing the I
 * loop isolates the update statement, whose triangular (I, J) pair then
 * interchanges into memory order KJI.
 *
 * Shows each intermediate decision: the LoopCost ranking, why plain
 * permutation fails, the distribution partitions, and the final nest.
 */

#include <iostream>

#include "interp/interp.hh"
#include "ir/printer.hh"
#include "model/loopcost.hh"
#include "suite/kernels.hh"
#include "transform/compound.hh"
#include "transform/permute.hh"

using namespace memoria;

int
main()
{
    ModelParams params;
    params.lineBytes = 32;

    Program prog = makeCholeskyKIJ(96);
    std::cout << "--- Cholesky, KIJ form (Figure 7a) ---\n"
              << printProgram(prog);

    NestAnalysis na(prog, prog.body[0].get(), params);
    std::cout << "\nLoopCost ranking:\n";
    for (Node *l : na.memoryOrder()) {
        std::cout << "  " << prog.varName(l->var) << ": "
                  << na.loopCost(l).str() << "\n";
    }

    PermuteResult pr = permuteToMemoryOrder(na, prog.body[0].get());
    std::cout << "\nplain permutation reaches memory order: "
              << (pr.achievedMemoryOrder ? "yes" : "no")
              << " (the nest is imperfect; Compound must distribute)\n";

    uint64_t before = runChecksum(prog);
    SweepResult r0 = runWithCaches(prog, {CacheConfig::i860()});

    CompoundResult cr = compoundTransform(prog, params);
    std::cout << "\n--- after Compound (distribute + triangular "
                 "interchange, Figure 7b) ---\n"
              << printProgram(prog);
    std::cout << "distributions: " << cr.distributions
              << ", nests created: " << cr.resultingNests << "\n";

    SweepResult r1 = runWithCaches(prog, {CacheConfig::i860()});
    std::cout << "semantics preserved: "
              << (runChecksum(prog) == before ? "yes" : "NO") << "\n"
              << "misses (8KB cache): " << r0.cache[0].misses << " -> "
              << r1.cache[0].misses << "\n";
    return 0;
}
