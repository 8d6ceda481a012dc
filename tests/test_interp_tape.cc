/**
 * Unit tests for the bytecode tape interpreter (interp/tape.hh): the
 * golden disassembly and listing digests, pinned fault diagnostics and
 * budget charges, the fault-flush contract for every listener kind,
 * and cancellation. The
 * rerun tests pin down Interpreter::setInitSeed after a run (the
 * oracle's bind-once contract) against fresh interpreters and the
 * reference evaluator; the checksum test pins down that sign flips
 * of two elements are seen; the jobs-determinism test pins down the
 * fuzz campaign (identical output for every jobs value).
 */

#include <iterator>
#include <sstream>

#include <gtest/gtest.h>

#include "cachesim/reuse.hh"
#include "check/equiv.hh"
#include "check/fuzz.hh"
#include "driver/fuzzcheck.hh"
#include "harness/budget.hh"
#include "interp/interp.hh"
#include "interp/tape.hh"
#include "ir/builder.hh"
#include "reference_interp.hh"
#include "suite/corpus.hh"
#include "suite/kernels.hh"
#include "support/hash.hh"
#include "support/stats.hh"

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

/** C(I) = X + X with X = A(I) * 2 one shared ValuePtr: the tape
 *  compiles each use of a shared value DAG in full. */
Program
makeSharedValueProgram()
{
    ProgramBuilder b("shared_value");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {n});
    Arr c = b.array("C", {n});
    Var i = b.loopVar("I");
    Val x = Val(a(i)) * 2.0;
    b.add(b.loop(i, 1, n, b.assign(c(i), x + x)));
    return b.finish();
}

TEST(Tape, GoldenDisassemblyDigests)
{
    // fnv1a64 of the full listing of every sample program (opaque
    // subscripts, negative steps, triangular bounds, guarded refs) and
    // of a statement that reuses one value node. A change here means
    // the compiler's output changed; update deliberately.
    std::vector<Program> progs = samplePrograms();
    progs.push_back(makeSharedValueProgram());
    const char *expected[] = {
        "c571d8bfde0bd0eb",  // matmul_JKI
        "da903e8265519321",  // cholesky_KIJ
        "84a394a2485294f1",  // adi_scalarized
        "4c5375b55f2731ad",  // erlebacher_distributed
        "e10b53d98795955d",  // vpenta
        "bde618080d0de891",  // jacobi_bad_order
        "c5c1c769c43e6d53",  // adm
        "0ec527dd4cbfe992",  // fuzz7
        "e93e1a833d1ded5a",  // fuzz19
        "b3eb06b2327db3d4",  // fuzz23
        "b36ce1b36f64fa0b",  // shared_value
    };
    ASSERT_EQ(progs.size(), std::size(expected));
    for (size_t k = 0; k < progs.size(); ++k) {
        Interpreter interp(progs[k]);
        EXPECT_EQ(hex64(fnv1a64(interp.compiledTape().disassemble())),
                  expected[k])
            << k << ": " << progs[k].name;
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

/** A(I) = I over A(N): the in-bounds twin of makeOobProgram. */
Program
makeInBoundsProgram()
{
    ProgramBuilder b("inbounds");
    Var n = b.param("N", 6);
    Arr a = b.array("A", {n});
    Var i = b.loopVar("I");
    b.add(b.loop(i, 1, n, b.assign(a(i), Val(i))));
    return b.finish();
}

/**
 * A(IND(I)) = I over A(N), IND(N), I from 1 to N (or N down to 1):
 * a scatter through a data-dependent opaque subscript. Initial data
 * lies in 1..7, so whether a run at N = 6 faults, and which element
 * the last writer owns, depends on the seed.
 */
Program
makeScatterProgram(bool reversed)
{
    ProgramBuilder b(reversed ? "scatter_rev" : "scatter");
    Var n = b.param("N", 6);
    Arr a = b.array("A", {n});
    Arr ind = b.array("IND", {n});
    Var i = b.loopVar("I");
    std::vector<NodePtr> body;
    body.push_back(b.assign(a.at({opaqueSub(Val(ind(i)))}), Val(i)));
    if (reversed)
        b.add(b.loop(i, n, 1, std::move(body), -1));
    else
        b.add(b.loop(i, 1, n, std::move(body)));
    return b.finish();
}

constexpr uint64_t kRerunSeeds[] = {0, 0x5eed1, 0x5eed2};

/** Everything one run leaves observable. */
struct RunSnapshot
{
    bool ok = false;
    std::string diag;
    ExecStats stats;
    CacheStats cache;
    uint64_t checksum = 0;
    std::vector<std::vector<double>> arrays;
};

RunSnapshot
snapshotRun(Interpreter &interp, const Program &p)
{
    RunSnapshot out;
    Cache cache(CacheConfig::i860());
    Status st = interp.run(&cache);
    out.ok = st.ok();
    if (!st.ok())
        out.diag = st.diag().str();
    out.stats = interp.stats();
    out.cache = cache.stats();
    out.checksum = interp.checksum();
    for (size_t a = 0; a < p.arrays.size(); ++a)
        out.arrays.push_back(interp.arrayData(static_cast<ArrayId>(a)));
    return out;
}

void
expectSameRun(const RunSnapshot &x, const RunSnapshot &y,
              const std::string &where)
{
    EXPECT_EQ(x.ok, y.ok) << where;
    EXPECT_EQ(x.diag, y.diag) << where;
    EXPECT_EQ(x.stats.stmtsExecuted, y.stats.stmtsExecuted) << where;
    EXPECT_EQ(x.stats.memRefs, y.stats.memRefs) << where;
    EXPECT_EQ(x.stats.loopIterations, y.stats.loopIterations) << where;
    EXPECT_EQ(x.cache.accesses, y.cache.accesses) << where;
    EXPECT_EQ(x.cache.hits, y.cache.hits) << where;
    EXPECT_EQ(x.cache.misses, y.cache.misses) << where;
    EXPECT_EQ(x.cache.coldMisses, y.cache.coldMisses) << where;
    EXPECT_EQ(x.cache.evictions, y.cache.evictions) << where;
    EXPECT_EQ(x.checksum, y.checksum) << where;
    EXPECT_TRUE(x.arrays == y.arrays) << where;
}

TEST(Rerun, ReseededRunMatchesFreshInterpreterAndReference)
{
    // Run at seed t, re-seed to s and run again on the same
    // Interpreter: arrays, ExecStats, cache counters and Diag must be
    // those of a fresh Interpreter at seed s and of the reference
    // evaluator at seed s — also when the run at t faulted — and the
    // tape is compiled once.
    std::vector<Program> progs;
    progs.push_back(makeMatmul("IJK", 6));
    progs.push_back(makeOobProgram());
    progs.push_back(makeScatterProgram(false));
    progs.push_back(makeScatterProgram(true));
    progs.push_back(fuzzProgram(19));
    static obs::Counter &cCompiles = obs::counter("interp.tape_compiles");
    bool sawFaultThenOk = false;
    for (const Program &p : progs) {
        for (uint64_t t : kRerunSeeds) {
            for (uint64_t s : kRerunSeeds) {
                std::ostringstream where;
                where << p.name << " seed " << t << " then " << s;
                uint64_t compilesBefore = cCompiles.value();
                Interpreter rerun(p);
                rerun.setInitSeed(t);
                RunSnapshot first = snapshotRun(rerun, p);
                rerun.setInitSeed(s);
                RunSnapshot second = snapshotRun(rerun, p);
                EXPECT_EQ(cCompiles.value() - compilesBefore, 1u)
                    << where.str();

                Interpreter fresh(p);
                fresh.setInitSeed(s);
                expectSameRun(second, snapshotRun(fresh, p), where.str());

                Cache refCache(CacheConfig::i860());
                ReferenceRun ref = runReference(p, &refCache, s);
                EXPECT_EQ(second.ok, ref.status.ok()) << where.str();
                if (!ref.status.ok()) {
                    EXPECT_EQ(second.diag, ref.status.diag().str())
                        << where.str();
                }
                EXPECT_EQ(second.stats.stmtsExecuted,
                          ref.stats.stmtsExecuted) << where.str();
                EXPECT_EQ(second.stats.memRefs, ref.stats.memRefs)
                    << where.str();
                EXPECT_EQ(second.stats.loopIterations,
                          ref.stats.loopIterations) << where.str();
                EXPECT_EQ(second.cache.misses, refCache.stats().misses)
                    << where.str();
                EXPECT_EQ(second.checksum, ref.checksum) << where.str();
                sawFaultThenOk |= !first.ok && second.ok;
            }
        }
    }
    // The scatter's seeds must cover a faulting run followed by a
    // clean one, or the test is not exercising the fault reset.
    EXPECT_TRUE(sawFaultThenOk);
}

/** A(I) = I for I = 1..8, then A(p) and A(q) negated when p > 0. */
Program
signFlipProgram(int p, int q)
{
    ProgramBuilder b("flip");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {n});
    Var i = b.loopVar("I");
    b.add(b.loop(i, 1, n, b.assign(a(i), Val(i))));
    if (p > 0) {
        b.add(b.assign(a(p), -Val(a(p))));
        b.add(b.assign(a(q), -Val(a(q))));
    }
    return b.finish();
}

TEST(Checksum, TwoSignFlipsChangeTheHash)
{
    // Small integer-valued doubles differ in the exponent and the top
    // mantissa bits, and a negation flips only bit 63. A word-wise
    // FNV-1a without folding the high half in maps every pair of sign
    // flips to the same hash; both checksums must tell them apart.
    Program base = signFlipProgram(0, 0);
    Interpreter baseInterp(base);
    ASSERT_TRUE(baseInterp.run().ok());
    uint64_t baseSum = baseInterp.checksum();
    EXPECT_EQ(runReference(base).checksum, baseSum);
    for (int p = 1; p <= 8; ++p) {
        for (int q = p + 1; q <= 8; ++q) {
            Program flipped = signFlipProgram(p, q);
            Interpreter interp(flipped);
            ASSERT_TRUE(interp.run().ok());
            EXPECT_NE(interp.checksum(), baseSum) << p << "," << q;
            EXPECT_EQ(runReference(flipped).checksum, interp.checksum())
                << p << "," << q;
        }
    }
}

/** C(1) counts the trips of one loop from `lb` to `ub` by `step`,
 *  and C(2) holds the index's last value. */
Program
limitLoopProgram(int64_t lb, int64_t ub, int64_t step)
{
    ProgramBuilder b("limits");
    Arr c = b.array("C", {2});
    Var i = b.loopVar("I");
    std::vector<NodePtr> body;
    body.push_back(b.assign(c(1), Val(c(1)) + 1.0));
    body.push_back(b.assign(c(2), Val(i)));
    b.add(b.loop(i, lb, ub, std::move(body), step));
    return b.finish();
}

TEST(Tape, LoopTripCountsAtTheInt64Limits)
{
    // Unit steps take the trip count without a 128-bit division; the
    // other steps still divide. Both must agree with the reference
    // evaluator where the bounds sit at the ends of int64.
    struct Case
    {
        int64_t lb, ub, step;
        uint64_t trips;
    };
    const Case cases[] = {
        {INT64_MAX, INT64_MIN, 1, 0},
        {INT64_MIN, INT64_MAX, -1, 0},
        {INT64_MAX - 2, INT64_MAX, 1, 3},
        {INT64_MIN + 2, INT64_MIN, -1, 3},
        {INT64_MAX - 4, INT64_MAX, 2, 3},
        {INT64_MIN + 5, INT64_MIN, -2, 3},
        {INT64_MAX, INT64_MAX, 1, 1},
        {INT64_MIN, INT64_MIN, -1, 1},
    };
    for (const Case &c : cases) {
        Program p = limitLoopProgram(c.lb, c.ub, c.step);
        std::ostringstream where;
        where << c.lb << " .. " << c.ub << " step " << c.step;
        Interpreter interp(p);
        ASSERT_TRUE(interp.run().ok()) << where.str();
        EXPECT_EQ(interp.stats().loopIterations, c.trips) << where.str();
        EXPECT_EQ(interp.stats().stmtsExecuted, 2 * c.trips) << where.str();
        ReferenceRun ref = runReference(p);
        ASSERT_TRUE(ref.status.ok()) << where.str();
        EXPECT_EQ(ref.stats.loopIterations, c.trips) << where.str();
        EXPECT_EQ(ref.stats.stmtsExecuted, interp.stats().stmtsExecuted)
            << where.str();
        EXPECT_EQ(ref.checksum, interp.checksum()) << where.str();
    }
}

/** Parameters the oracle rebinds to the trial size. */
bool
isSymbolic(const VarInfo &v)
{
    return v.kind == VarKind::Param && !v.paramPoly.isConstant();
}

/**
 * The oracle's protocol with two fresh Interpreters per (size, seed)
 * round and a by-name compare of every non-register array — the
 * reference for the bind-once checkEquivalence.
 */
EquivResult
freshRoundOracle(const Program &ref, const Program &cand,
                 const EquivOptions &opts)
{
    auto runFresh = [](const Program &p, Interpreter &interp,
                       int64_t size,
                       uint64_t seed) -> std::optional<Diag> {
        std::vector<std::pair<std::string_view, int64_t>> values;
        for (const VarInfo &v : p.vars)
            if (size > 0 && isSymbolic(v))
                values.emplace_back(v.name, size);
        Status bound = interp.setParams(values);
        if (!bound.ok())
            return bound.diag();
        interp.setInitSeed(seed);
        Status st = interp.run();
        if (!st.ok())
            return st.diag();
        return std::nullopt;
    };
    EquivResult result;
    for (int64_t size : opts.sizes) {
        for (uint64_t seed : opts.seeds) {
            Interpreter ri(ref);
            if (runFresh(ref, ri, size, seed)) {
                ++result.skippedRuns;
                continue;
            }
            Interpreter ci(cand);
            std::ostringstream os;
            if (std::optional<Diag> f = runFresh(cand, ci, size, seed)) {
                os << "candidate '" << cand.name
                   << "' faults where the reference runs (size=" << size
                   << ", seed=" << seed << "): " << f->str();
            } else {
                ++result.comparedRuns;
                for (size_t a = 0; a < ref.arrays.size() && os.str().empty();
                     ++a) {
                    const ArrayDecl &decl = ref.arrays[a];
                    if (decl.isRegister)
                        continue;
                    ArrayId ca = -1;
                    for (size_t c = 0; c < cand.arrays.size(); ++c)
                        if (cand.arrays[c].name == decl.name)
                            ca = static_cast<ArrayId>(c);
                    if (ca < 0) {
                        os << "array '" << decl.name
                           << "' missing from candidate '" << cand.name
                           << "'";
                        break;
                    }
                    const auto &rv = ri.arrayData(static_cast<ArrayId>(a));
                    const auto &cv = ci.arrayData(ca);
                    if (rv.size() != cv.size()) {
                        os << "array '" << decl.name << "' has "
                           << rv.size() << " elements in the reference, "
                           << cv.size() << " in the candidate";
                        break;
                    }
                    for (size_t i = 0; i < rv.size(); ++i) {
                        if (rv[i] == cv[i])
                            continue;
                        os << "array '" << decl.name << "' diverges at "
                           << "element " << i << " (size=" << size
                           << ", seed=" << seed << "): " << rv[i]
                           << " != " << cv[i];
                        break;
                    }
                }
            }
            if (result.equivalent && !os.str().empty()) {
                result.equivalent = false;
                result.detail = os.str();
            }
        }
        if (!result.equivalent)
            break;
        if (opts.stopAfterConclusiveSize && result.comparedRuns > 0)
            break;
    }
    return result;
}

TEST(EquivBindOnce, MatchesFreshPerRoundInterpreters)
{
    // Binding each side once per trial size must not change a single
    // observable of the check: verdict, detail, compared and skipped
    // rounds, under the default options and Compound's guard options.
    Program ijk = makeMatmul("IJK", 8);
    Program ikj = makeMatmul("IKJ", 8);
    Program inBounds = makeInBoundsProgram();
    Program oob = makeOobProgram();
    Program scatter = makeScatterProgram(false);
    Program scatterRev = makeScatterProgram(true);

    EquivOptions guard;
    guard.sizes = {7, 0};
    guard.stopAfterConclusiveSize = true;

    int skipped = 0, failed = 0;
    for (auto [a, b] : {std::pair<const Program *, const Program *>{
                            &ijk, &ikj},
                        {&inBounds, &oob},
                        {&oob, &inBounds},
                        {&scatter, &scatterRev}}) {
        for (const EquivOptions &opts : {EquivOptions{}, guard}) {
            EquivResult want = freshRoundOracle(*a, *b, opts);
            EquivResult got = checkEquivalence(*a, *b, opts);
            std::string where = a->name + " vs " + b->name;
            EXPECT_EQ(got.equivalent, want.equivalent) << where;
            EXPECT_EQ(got.detail, want.detail) << where;
            EXPECT_EQ(got.comparedRuns, want.comparedRuns) << where;
            EXPECT_EQ(got.skippedRuns, want.skippedRuns) << where;
            skipped += want.skippedRuns;
            failed += want.equivalent ? 0 : 1;
        }
    }
    // The pairs must cover skipped rounds and failed checks.
    EXPECT_GT(skipped, 0);
    EXPECT_GT(failed, 0);
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
