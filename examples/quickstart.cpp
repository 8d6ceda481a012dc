/**
 * @file
 * Quickstart: build a loop nest, ask the cost model for memory order,
 * run the Compound optimizer, and verify the result.
 *
 *   $ ./examples/quickstart
 *
 * This walks the full public API surface in ~60 lines: the builder DSL,
 * NestAnalysis (RefGroup/LoopCost/memory order), compoundTransform, the
 * pretty printer, the interpreter and the cache simulator.
 */

#include <iostream>

#include "driver/memoria.hh"
#include "ir/builder.hh"
#include "ir/printer.hh"
#include "model/loopcost.hh"

using namespace memoria;

int
main()
{
    // Matrix multiply written in the textbook (cache-hostile) order.
    ProgramBuilder b("quickstart");
    Var n = b.param("N", 128);
    Arr a = b.array("A", {n, n});
    Arr bm = b.array("B", {n, n});
    Arr c = b.array("C", {n, n});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    Var k = b.loopVar("K");
    b.add(b.loop(i, 1, n,
                 b.loop(k, 1, n,
                        b.loop(j, 1, n,
                               b.assign(c(i, j),
                                        c(i, j) + a(i, k) * bm(k, j))))));
    Program prog = b.finish();

    std::cout << "--- original ---\n" << printProgram(prog);

    // Ask the cost model which loop belongs innermost.
    ModelParams params;
    params.lineBytes = 32;  // 4 doubles per line, as in the paper
    NestAnalysis na(prog, prog.body[0].get(), params);
    std::cout << "\nLoopCost (cache lines touched with each loop "
                 "innermost):\n";
    for (Node *l : na.loops()) {
        std::cout << "  " << prog.varName(l->var) << ": "
                  << na.loopCost(l).str() << "\n";
    }
    std::cout << "memory order: ";
    for (Node *l : na.memoryOrder())
        std::cout << prog.varName(l->var);
    std::cout << "\n";

    // Optimize and verify: same results, fewer misses.
    OptimizedProgram opt = optimizeProgram(prog, params);
    std::cout << "\n--- transformed ---\n"
              << printProgram(opt.transformed);

    std::cout << "semantics preserved: "
              << (runChecksum(opt.original) ==
                          runChecksum(opt.transformed)
                      ? "yes"
                      : "NO")
              << "\n";

    // Hit rates and cycles come from the same simulated runs; a
    // program fault would come back as a Diag.
    std::vector<Performance> perf;
    Result<std::vector<HitRates>> rates =
        simulateHitRates(opt, {CacheConfig::i860()}, &perf);
    if (!rates.ok()) {
        std::cerr << rates.diag().str() << "\n";
        return 1;
    }
    std::cout << "hit rate (8KB cache, warm): "
              << rates.value()[0].wholeOrig << "% -> "
              << rates.value()[0].wholeFinal
              << "%\nsimulated speedup: " << perf[0].speedup() << "x\n";
    return 0;
}
