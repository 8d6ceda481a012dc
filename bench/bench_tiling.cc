/**
 * @file
 * Section 6: tiling guided by the cost model.
 *
 * The paper's criterion: tile to create loop-invariant references with
 * respect to the target loop, because invariant references touch far
 * fewer lines than consecutive or non-consecutive ones. We tile
 * memory-order matmul (JKI) and sweep the tile size; the simulated
 * misses at N=96 should drop well below the untiled version once the
 * working set of a tile fits the cache, then climb back as tiles grow.
 */

#include "common.hh"
#include "dependence/graph.hh"
#include "interp/interp.hh"
#include "ir/printer.hh"
#include "ir/walk.hh"
#include "suite/kernels.hh"
#include "transform/tile.hh"

namespace memoria {
namespace {

int
benchMain()
{
    const int64_t n = 96;
    Program base = makeMatmul("JKI", n);
    SweepResult untiled = runWithCaches(base, {CacheConfig::i860()});

    banner("Tiling matmul JKI (N = 96, cache2 = 8KB 2-way 32B)");
    TextTable t({"tile", "legal", "misses", "hit% (warm)",
                 "vs untiled misses"});
    t.addRow({"untiled", "-", std::to_string(untiled.cache[0].misses),
              TextTable::num(untiled.cache[0].hitRateWarm(), 2), "1.00"});

    for (int64_t tile : {8, 16, 32, 48, 96}) {
        Program p = makeMatmul("JKI", n);
        DependenceGraph g(p, collectStmts(p));
        bool ok = tilePerfectNest(p, p.body[0].get(), 3, tile,
                                  g.edges());
        if (!ok) {
            t.addRow({std::to_string(tile), "no", "-", "-", "-"});
            continue;
        }
        if (runChecksum(p) != runChecksum(base)) {
            t.addRow({std::to_string(tile), "BROKEN", "-", "-", "-"});
            continue;
        }
        SweepResult r = runWithCaches(p, {CacheConfig::i860()});
        t.addRow({std::to_string(tile), "yes",
                  std::to_string(r.cache[0].misses),
                  TextTable::num(r.cache[0].hitRateWarm(), 2),
                  TextTable::num(static_cast<double>(r.cache[0].misses) /
                                     untiled.cache[0].misses, 2)});
    }
    std::cout << t.str();

    banner("Tiled structure (tile = 16, outer controllers)");
    Program shown = makeMatmul("JKI", 32);
    DependenceGraph g(shown, collectStmts(shown));
    tilePerfectNest(shown, shown.body[0].get(), 3, 16, g.edges());
    std::cout << printProgram(shown);

    std::cout << "\npaper shape (Section 6): tiling captures the "
                 "long-term reuse the inner-loop model cannot, by "
                 "making references loop-invariant with respect to the "
                 "target loop.\n";
    return 0;
}

} // namespace
} // namespace memoria

int
main()
{
    return memoria::benchMain();
}
