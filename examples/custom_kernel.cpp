/**
 * @file
 * Bring your own kernel: write any loop nest in the builder DSL and
 * let the library analyze and optimize it.
 *
 * The kernel here is a banded triangular solve with a scaling
 * statement — an imperfect nest with a triangular inner loop, i.e. the
 * hard case that exercises distribution and triangular interchange.
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
    ProgramBuilder b("custom");
    Var n = b.param("N", 96);
    Arr l = b.array("L", {n, n});
    Arr x = b.array("X", {n});
    Arr d = b.array("D", {n});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");

    // forward substitution, row-oriented (inner J sweeps a row of L,
    // which is the wrong direction for column-major storage):
    //   DO I = 2, N
    //     X(I) = X(I) / D(I)
    //     DO J = 1, I-1
    //       X(I) = X(I) - L(I,J) * X(J)
    std::vector<NodePtr> body;
    body.push_back(b.assign(x(i), Val(x(i)) / d(i)));
    body.push_back(b.loop(j, 1, Ix(i) - 1,
                          b.assign(x(i), x(i) - l(i, j) * x(j))));
    b.add(b.loop(i, 2, n, std::move(body)));
    Program prog = b.finish();

    std::cout << "--- input ---\n" << printProgram(prog);

    ModelParams params;
    params.lineBytes = 32;

    NestAnalysis na(prog, prog.body[0].get(), params);
    std::cout << "\nreference groups w.r.t. the inner J loop:\n";
    Node *jLoop = na.loops().back();
    for (const auto &g : na.groups(jLoop)) {
        const auto &rep = na.refs()[g.representative];
        std::cout << "  group of " << g.members.size()
                  << " (class: " << reuseName(na.classify(rep, jLoop))
                  << ")\n";
    }

    OptimizedProgram opt = optimizeProgram(prog, params);
    std::cout << "\n--- optimized ---\n"
              << printProgram(opt.transformed);
    std::cout << "semantics preserved: "
              << (runChecksum(opt.original) ==
                          runChecksum(opt.transformed)
                      ? "yes"
                      : "NO")
              << "\n";
    Performance perf =
        simulatePerformance(opt, {CacheConfig::i860()}).value()[0];
    std::cout << "simulated speedup (8KB cache): " << perf.speedup()
              << "x\n";
    return 0;
}
