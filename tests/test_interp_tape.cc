/**
 * Unit tests for the flat arena IR and the bytecode tape interpreter
 * (interp/arena.hh, interp/tape.hh): lossless flattening, the golden
 * disassembly, pinned fault diagnostics and budget charges, the
 * fault-flush contract for every listener kind, and cancellation. The
 * jobs-determinism tests pin down the parallel oracle and fuzz
 * campaign contracts (identical output for every jobs value).
 */

#include <gtest/gtest.h>

#include "cachesim/reuse.hh"
#include "check/equiv.hh"
#include "check/fuzz.hh"
#include "driver/fuzzcheck.hh"
#include "harness/budget.hh"
#include "interp/arena.hh"
#include "interp/interp.hh"
#include "interp/tape.hh"
#include "ir/builder.hh"
#include "ir/printer.hh"
#include "suite/corpus.hh"
#include "suite/kernels.hh"

namespace memoria {
namespace {

/** Programs spanning the IR surface: kernels, a corpus program with a
 *  large symbol table, and a few fuzz programs. */
std::vector<Program>
samplePrograms()
{
    std::vector<Program> progs;
    progs.push_back(makeMatmul("JKI", 8));
    progs.push_back(makeCholeskyKIJ(8));
    progs.push_back(makeAdiScalarized(8));
    progs.push_back(makeErlebacherDistributed(8));
    progs.push_back(makeVpenta(8));
    progs.push_back(makeJacobiBadOrder(8));
    progs.push_back(buildCorpusProgram(corpusSpecs().front(), 8));
    for (uint64_t seed : {7u, 19u, 23u})
        progs.push_back(fuzzProgram(seed));
    return progs;
}

TEST(Arena, RoundTripIsLossless)
{
    // toProgram() must reconstruct a program that prints identically
    // — the flattening loses nothing the printer can observe.
    for (const Program &p : samplePrograms()) {
        ProgramArena arena(p);
        Program back = arena.toProgram();
        EXPECT_EQ(printProgram(back), printProgram(p)) << p.name;
    }
}

TEST(Arena, RoundTripPreservesSemantics)
{
    for (const Program &p : samplePrograms()) {
        ProgramArena arena(p);
        Program back = arena.toProgram();
        Result<uint64_t> orig = tryRunChecksum(p);
        Result<uint64_t> rt = tryRunChecksum(back);
        ASSERT_EQ(orig.ok(), rt.ok()) << p.name;
        if (orig.ok())
            EXPECT_EQ(orig.value(), rt.value()) << p.name;
    }
}

TEST(Tape, GoldenMatmulDisassembly)
{
    // The Figure 2 matmul nest in memory order (JKI), N=4: three
    // counted loops, four strength-reduced fast references (strides
    // folded into one affine per reference), no guards — interval
    // analysis proves every subscript in bounds. A change here means
    // the compiler's output changed; update deliberately.
    Program p = makeMatmul("JKI", 4);
    Interpreter interp(p);
    const Tape &tape = interp.compiledTape();
    EXPECT_EQ(tape.disassemble(),
              "tape 'matmul_JKI': 13 instrs, 3 loops, 4 fast refs, "
              "0 guarded refs\n"
              "  0: loop.begin J = <1> .. <N> step 1 end@11\n"
              "  1: loop.begin K = <1> .. <N> step 1 end@10\n"
              "  2: loop.begin I = <1> .. <N> step 1 end@9\n"
              "  3: load.fast C[<I + 4*J - 5>]\n"
              "  4: load.fast A[<I + 4*K - 5>]\n"
              "  5: load.fast B[<4*J + K - 5>]\n"
              "  6: mul\n"
              "  7: add\n"
              "  8: store.fast C[<I + 4*J - 5>]\n"
              "  9: loop.end I body@3\n"
              " 10: loop.end K body@2\n"
              " 11: loop.end J body@1\n"
              " 12: halt\n");
    EXPECT_EQ(tape.fastRefs(), 4);
    EXPECT_EQ(tape.guardedRefs(), 0);
}

/** A(I+1) over A(N): out of bounds on the last iteration. */
Program
makeOobProgram()
{
    ProgramBuilder b("oob");
    Var n = b.param("N", 6);
    Arr a = b.array("A", {n});
    Var i = b.loopVar("I");
    b.add(b.loop(i, 1, n, b.assign(a(Ix(i) + 1), Val(i))));
    return b.finish();
}

TEST(Tape, OutOfBoundsDiag)
{
    // The tape compiles the reference guarded (it cannot prove I+1 in
    // bounds); the fault names the subscript, the loop iteration and
    // the statement, and the counters stop at the fault.
    Program p = makeOobProgram();
    Interpreter interp(p);
    EXPECT_GT(interp.compiledTape().guardedRefs(), 0);
    Status st = interp.run();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.diag().str(),
              "interp.oob: subscript 1 = 7 out of bounds 1..6 on array A "
              "in DO I=6 (statement 0)");
    EXPECT_EQ(interp.stats().stmtsExecuted, 5u);
    EXPECT_EQ(interp.stats().memRefs, 5u);
    EXPECT_EQ(interp.stats().loopIterations, 6u);
}

TEST(Tape, ModZeroDiag)
{
    // I MOD (I - I) faults at runtime, in the first iteration.
    ProgramBuilder b("modzero");
    Var n = b.param("N", 4);
    Arr a = b.array("A", {n});
    Var i = b.loopVar("I");
    b.add(b.loop(i, 1, n,
                 b.assign(a(i), imodv(Val(i), Val(i) - Val(i)))));
    Program p = b.finish();

    Interpreter interp(p);
    Status st = interp.run();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.diag().str(),
              "interp.mod_zero: MOD by zero in DO I=1 (statement 0)");
    EXPECT_EQ(interp.stats().stmtsExecuted, 0u);
}

/** A(I+1) = I over A(N), N = 10000: faults after 9999 stores, more
 *  than two full access batches plus a partial one. */
Program
makeLongOobProgram()
{
    ProgramBuilder b("oob_long");
    Var n = b.param("N", 10000);
    Arr a = b.array("A", {n});
    Var i = b.loopVar("I");
    b.add(b.loop(i, 1, n, b.assign(a(Ix(i) + 1), Val(i))));
    return b.finish();
}

TEST(Tape, FaultFlushesEveryListenerKind)
{
    // One rule for every listener: a program fault flushes the
    // trailing partial batch, so the listener has seen exactly the
    // accesses the interpreter counted.
    Program p = makeLongOobProgram();

    Interpreter i1(p);
    Cache cache(CacheConfig::i860());
    ASSERT_FALSE(i1.run(&cache).ok());
    EXPECT_EQ(i1.stats().memRefs, 9999u);
    EXPECT_EQ(cache.stats().accesses, i1.stats().memRefs);

    Interpreter i2(p);
    ReuseDistanceAnalyzer rd(32);
    ASSERT_FALSE(i2.run(&rd).ok());
    EXPECT_EQ(rd.warmAccesses() + rd.coldAccesses(), i2.stats().memRefs);

    Interpreter i3(p);
    MultiCacheSim sim({CacheConfig::rs6000(), CacheConfig::i860()});
    ASSERT_FALSE(i3.run(&sim).ok());
    EXPECT_EQ(sim.stats(0).accesses, i3.stats().memRefs);
    EXPECT_EQ(sim.stats(1).accesses, i3.stats().memRefs);
}

/** Run `p` under an iteration budget; returns the cancel kind (or
 *  nullopt if the run finished) and the iterations charged. */
std::pair<std::optional<harness::CancelKind>, uint64_t>
runUnderBudget(const Program &p, uint64_t maxIters)
{
    harness::Budget budget;
    budget.maxInterpIterations = maxIters;
    harness::CancelToken token(budget);
    harness::BudgetScope scope(&token);
    Interpreter interp(p);
    try {
        interp.run();
    } catch (const harness::CancelledError &e) {
        return {e.kind, token.iterationsUsed()};
    }
    return {std::nullopt, token.iterationsUsed()};
}

TEST(Tape, IterationBudgetCharge)
{
    // 32^3 = 32768 iterations against a 5000-iteration budget. The
    // budget is polled every 4096 iterations, so the run is cancelled
    // at the second charge point.
    auto [kind, iters] = runUnderBudget(makeMatmul("JKI", 32), 5000);
    ASSERT_TRUE(kind.has_value());
    EXPECT_EQ(*kind, harness::CancelKind::IterBudget);
    EXPECT_EQ(iters, 8192u);
}

TEST(Tape, ExternalCancellation)
{
    // A pre-cancelled token stops the run at its first poll.
    harness::Budget budget;
    harness::CancelToken token(budget);
    token.cancel();
    harness::BudgetScope scope(&token);
    Program p = makeMatmul("JKI", 32);
    Interpreter interp(p);
    bool cancelled = false;
    try {
        interp.run();
    } catch (const harness::CancelledError &e) {
        cancelled = true;
        EXPECT_EQ(e.kind, harness::CancelKind::External);
    }
    EXPECT_TRUE(cancelled);
}

TEST(EquivJobs, ParallelRoundsAreDeterministic)
{
    // The oracle's verdict, counters and detail string must not
    // depend on the worker count.
    Program ref = makeMatmul("JKI", 8);
    Program sameValues = makeMatmul("IKJ", 8);
    Program broken = makeOobProgram();

    for (auto [a, b] : {std::pair<const Program *, const Program *>{
                            &ref, &sameValues},
                        {&ref, &broken}}) {
        EquivOptions serial;
        serial.jobs = 1;
        EquivResult r1 = checkEquivalence(*a, *b, serial);
        EquivOptions parallel;
        parallel.jobs = 4;
        EquivResult r4 = checkEquivalence(*a, *b, parallel);
        EXPECT_EQ(r1.equivalent, r4.equivalent);
        EXPECT_EQ(r1.comparedRuns, r4.comparedRuns);
        EXPECT_EQ(r1.skippedRuns, r4.skippedRuns);
        EXPECT_EQ(r1.detail, r4.detail);
    }
}

TEST(FuzzJobs, ParallelCampaignIsDeterministic)
{
    // Bitwise-identical report for every jobs value: counters,
    // message order, failure records.
    FuzzReport r1 = runFuzzCampaign(42, 8, {}, 1);
    FuzzReport r4 = runFuzzCampaign(42, 8, {}, 4);
    EXPECT_EQ(r1.programs, r4.programs);
    EXPECT_EQ(r1.validateFailures, r4.validateFailures);
    EXPECT_EQ(r1.roundTripFailures, r4.roundTripFailures);
    EXPECT_EQ(r1.equivFailures, r4.equivFailures);
    EXPECT_EQ(r1.rollbacks, r4.rollbacks);
    EXPECT_EQ(r1.messages, r4.messages);
    ASSERT_EQ(r1.failures.size(), r4.failures.size());
    for (size_t i = 0; i < r1.failures.size(); ++i) {
        EXPECT_EQ(r1.failures[i].seed, r4.failures[i].seed);
        EXPECT_EQ(r1.failures[i].kind, r4.failures[i].kind);
        EXPECT_EQ(r1.failures[i].detail, r4.failures[i].detail);
    }
}

} // namespace
} // namespace memoria
