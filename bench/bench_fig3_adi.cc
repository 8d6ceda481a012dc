/**
 * @file
 * Figure 3: ADI integration — fusion and interchange.
 *
 * Regenerates the LoopCost comparison between the Fortran-90-scalarized
 * loops (two K nests inside I) and the fused-and-interchanged form, and
 * validates with the cache simulator. Expected shape (cls = 4):
 * distributed K costs 5n^2, fused K costs 3n^2, fused I costs 3/4 n^2;
 * Compound discovers fusion + interchange automatically and the fused
 * version misses less.
 */

#include "common.hh"
#include "interp/interp.hh"
#include "ir/printer.hh"
#include "model/loopcost.hh"
#include "suite/kernels.hh"
#include "transform/compound.hh"

namespace memoria {
namespace {

int
benchMain()
{
    banner("Figure 3: ADI LoopCost (cls = 4)");
    Program dist = makeAdiScalarized(128);
    Program fused = makeAdiFused(128);

    NestAnalysis da(dist, dist.body[0].get(), paperModel());
    NestAnalysis fa(fused, fused.body[0].get(), paperModel());

    Node *fk = nullptr, *fi = nullptr;
    for (Node *l : fa.loops()) {
        if (fused.varName(l->var) == "K")
            fk = l;
        if (fused.varName(l->var) == "I")
            fi = l;
    }

    TextTable t({"version", "cost at K inner", "cost at I inner"});
    t.addRow({"distributed (Fig 3b)", nestCost(da).str(), "-"});
    t.addRow({"fused (Fig 3c)", fa.loopCost(fk).str(),
              fa.loopCost(fi).str()});
    std::cout << t.str();
    std::cout << "\npaper: distributed K = 5n^2, fused K = 3n^2, "
                 "fused I = (3/4)n^2\n";

    banner("Compound discovers the transformation");
    Program opt = makeAdiScalarized(128);
    compoundTransform(opt, paperModel());
    std::cout << printProgram(opt);
    bool preserved = runChecksum(opt) == runChecksum(dist);
    std::cout << "semantics preserved: " << (preserved ? "yes" : "NO")
              << "\n";

    banner("Simulated caches (N = 128)");
    TextTable sim({"version", "cache", "hit% (warm)", "misses",
                   "cycles"});
    for (const CacheConfig &cfg :
         {CacheConfig::rs6000(), CacheConfig::i860()}) {
        for (auto *pr : {&dist, &opt}) {
            SweepResult r = runWithCaches(*pr, {cfg});
            sim.addRow({pr == &dist ? "distributed" : "fused(auto)",
                        cfg.name,
                        TextTable::num(r.cache[0].hitRateWarm(), 2),
                        std::to_string(r.cache[0].misses),
                        TextTable::num(r.cycles[0], 0)});
        }
    }
    std::cout << sim.str();
    if (!preserved) {
        std::cout << "\nFAIL: Compound changed the semantics of the "
                     "scalarized ADI nest\n";
        return 1;
    }
    return 0;
}

} // namespace
} // namespace memoria

int
main()
{
    return memoria::benchMain();
}
