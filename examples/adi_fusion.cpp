/**
 * @file
 * The Figure 3 story: Fortran 90 array syntax scalarizes into loops
 * with poor locality; fusion plus interchange repairs it.
 *
 * Builds the scalarized ADI fragment, shows the cost model's fusion
 * profitability test (Section 4.3.1), lets Compound fuse and
 * interchange, and compares cache behaviour before and after.
 */

#include <iostream>

#include "interp/interp.hh"
#include "ir/printer.hh"
#include "model/loopcost.hh"
#include "suite/kernels.hh"
#include "transform/compound.hh"
#include "transform/fuse.hh"

using namespace memoria;

int
main()
{
    ModelParams params;
    params.lineBytes = 32;

    Program prog = makeAdiScalarized(96);
    std::cout << "--- scalarized Fortran 90 (Figure 3b) ---\n"
              << printProgram(prog);

    // The profitability test the Fuse algorithm runs (Section 4.3.1).
    Node *iLoop = prog.body[0].get();
    Node *k1 = iLoop->body[0].get();
    Node *k2 = iLoop->body[1].get();
    std::cout << "\nfusing the two K loops is "
              << (fusionProfitable(prog, *k1, *k2, {iLoop}, params)
                      ? "profitable"
                      : "not profitable")
              << " by the cost model (paper: 5n^2 -> 3n^2)\n";

    uint64_t before = runChecksum(prog);
    SweepResult r0 = runWithCaches(prog, {CacheConfig::rs6000()});

    compoundTransform(prog, params);
    std::cout << "\n--- after Compound (fuse + interchange, Figure 3c) "
                 "---\n"
              << printProgram(prog);

    SweepResult r1 = runWithCaches(prog, {CacheConfig::rs6000()});
    std::cout << "semantics preserved: "
              << (runChecksum(prog) == before ? "yes" : "NO") << "\n"
              << "misses (64KB cache): " << r0.cache[0].misses << " -> "
              << r1.cache[0].misses << "\n"
              << "hit rate: " << r0.cache[0].hitRateWarm() << "% -> "
              << r1.cache[0].hitRateWarm() << "%\n";
    return 0;
}
