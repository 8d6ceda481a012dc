/**
 * @file
 * Cache explorer: sweep cache geometries over a kernel, before and
 * after optimization.
 *
 * Useful for seeing where the paper's effect lives: with caches much
 * larger than the working set both versions hit ~100%; as the cache
 * shrinks, the memory-order version keeps its hit rate much longer.
 *
 * Usage: cache_explorer [N]   (default 64)
 */

#include <cstdlib>
#include <iostream>

#include "driver/memoria.hh"
#include "suite/kernels.hh"
#include "support/table.hh"

using namespace memoria;

int
main(int argc, char **argv)
{
    int64_t n = argc > 1 ? std::atoll(argv[1]) : 64;

    ModelParams params;
    params.lineBytes = 32;
    OptimizedProgram opt =
        optimizeProgram(makeMatmul("IKJ", n), params);

    TextTable t({"cache", "assoc", "line", "orig hit%", "opt hit%",
                 "orig misses", "opt misses"});
    for (int64_t kb : {2, 8, 32, 64, 256}) {
        for (int assoc : {1, 2, 4}) {
            CacheConfig cfg;
            cfg.name = std::to_string(kb) + "KB";
            cfg.sizeBytes = kb * 1024;
            cfg.associativity = assoc;
            cfg.lineBytes = 32;
            SweepResult orig = runWithCaches(opt.original, {cfg});
            SweepResult fin = runWithCaches(opt.transformed, {cfg});
            t.addRow({cfg.name, std::to_string(assoc), "32",
                      TextTable::num(orig.cache[0].hitRateWarm(), 2),
                      TextTable::num(fin.cache[0].hitRateWarm(), 2),
                      std::to_string(orig.cache[0].misses),
                      std::to_string(fin.cache[0].misses)});
        }
        t.addRule();
    }
    std::cout << "matmul IKJ vs optimized (JKI), N = " << n << "\n\n"
              << t.str();
    return 0;
}
