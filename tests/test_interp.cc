/** Unit tests for the IR interpreter and the cycle model. */

#include <gtest/gtest.h>

#include "interp/interp.hh"
#include "ir/builder.hh"
#include "suite/kernels.hh"

namespace memoria {
namespace {

TEST(Interp, MatmulComputesProducts)
{
    // C(i,j) initially holds pseudo-random values; after the kernel it
    // holds C0 + sum_k A(i,k)*B(k,j). Recompute by hand from the
    // interpreter's own initial arrays.
    Program p = makeMatmul("IJK", 6);
    Interpreter pristine(p);
    auto a0 = pristine.arrayData(0);
    auto b0 = pristine.arrayData(1);
    auto c0 = pristine.arrayData(2);

    Interpreter interp(p);
    interp.run();
    const auto &c = interp.arrayData(2);

    int n = 6;
    for (int jj = 0; jj < n; ++jj) {
        for (int ii = 0; ii < n; ++ii) {
            double expect = c0[ii + jj * n];
            for (int kk = 0; kk < n; ++kk)
                expect += a0[ii + kk * n] * b0[kk + jj * n];
            EXPECT_DOUBLE_EQ(c[ii + jj * n], expect)
                << "C(" << ii + 1 << "," << jj + 1 << ")";
        }
    }
    EXPECT_EQ(interp.stats().stmtsExecuted, 216u);
    EXPECT_EQ(interp.stats().memRefs, 216u * 4);
}

TEST(Interp, AllMatmulOrdersAgree)
{
    uint64_t base = runChecksum(makeMatmul("IJK", 10));
    for (const char *order : {"IKJ", "JIK", "JKI", "KIJ", "KJI"})
        EXPECT_EQ(runChecksum(makeMatmul(order, 10)), base) << order;
}

TEST(Interp, CholeskyFormsAgree)
{
    // Figure 7: the KJI form with distribution and triangular
    // interchange computes exactly the same values as the KIJ form.
    EXPECT_EQ(runChecksum(makeCholeskyKIJ(12)),
              runChecksum(makeCholeskyKJI(12)));
}

TEST(Interp, AdiFusionPreservesSemantics)
{
    EXPECT_EQ(runChecksum(makeAdiScalarized(12)),
              runChecksum(makeAdiFused(12)));
}

TEST(Interp, ErlebacherVariantsAgree)
{
    EXPECT_EQ(runChecksum(makeErlebacherDistributed(8)),
              runChecksum(makeErlebacherHand(8)));
}

TEST(Interp, NegativeStepLoop)
{
    ProgramBuilder b("rev");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {n});
    Var i = b.loopVar("I");
    // A(I) = I, iterating N..1: final contents 1..N regardless.
    std::vector<NodePtr> body;
    body.push_back(b.assign(a(i), Val(i)));
    b.add(b.loop(i, n, 1, std::move(body), -1));
    Program p = b.finish();
    Interpreter interp(p);
    interp.run();
    for (int k = 0; k < 8; ++k)
        EXPECT_DOUBLE_EQ(interp.arrayData(0)[k], k + 1.0);
}

TEST(Interp, OpaqueSubscriptGather)
{
    ProgramBuilder b("gather");
    Var n = b.param("N", 4);
    Arr a = b.array("A", {n});
    Arr ind = b.array("IND", {n});
    Arr out = b.array("OUT", {n});
    Var i = b.loopVar("I");
    b.add(b.loop(i, 1, n, b.assign(ind(i), minv(Val(i) + 1.0, Val(n)))));
    b.add(b.loop(i, 1, n,
                 b.assign(out(i), a.at({opaqueSub(Val(ind(i)))}))));
    Program p = b.finish();
    Interpreter interp(p);
    interp.run();
    const auto &av = interp.arrayData(0);
    const auto &ov = interp.arrayData(2);
    for (int k = 0; k < 4; ++k) {
        int idx = std::min(k + 2, 4);
        EXPECT_DOUBLE_EQ(ov[k], av[idx - 1]);
    }
}

TEST(Interp, ParamOverride)
{
    Program p = makeMatmul("IJK", 64);
    Interpreter interp(p);
    ASSERT_TRUE(interp.setParams({{"N", 4}}).ok());
    interp.run();
    EXPECT_EQ(interp.stats().stmtsExecuted, 64u);
}

TEST(Interp, SetParamsBindsAllOrNothing)
{
    Program p = makeMatmul("IJK", 64);
    Interpreter interp(p);
    Status st = interp.setParams({{"N", 4}, {"NOPE", 1}});
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.diag().code, "interp.param");
    EXPECT_EQ(interp.arrayElems(0), 64u * 64u);  // N kept its value
    ASSERT_TRUE(interp.setParams({{"N", 4}}).ok());
    EXPECT_EQ(interp.arrayElems(0), 16u);
}

TEST(Interp, RunWithCacheCyclesAccounting)
{
    Program p = makeMatmul("JKI", 32);
    MachineModel mm;
    SweepResult r = runWithCaches(p, {CacheConfig::i860()}, mm);
    EXPECT_EQ(r.exec.stmtsExecuted, 32u * 32 * 32);
    EXPECT_EQ(r.cache[0].accesses, r.exec.memRefs);
    double expect = mm.cyclesPerStmt * r.exec.stmtsExecuted +
                    mm.cyclesPerRef * r.exec.memRefs +
                    mm.missPenalty * r.cache[0].misses;
    EXPECT_DOUBLE_EQ(r.cycles[0], expect);
    EXPECT_EQ(r.checksum, runChecksum(p));
}

TEST(Interp, MemoryOrderHasFewerMissesThanWorstOrder)
{
    // The core claim of Figure 2 at simulator level: JKI beats IKJ.
    SweepResult good =
        runWithCaches(makeMatmul("JKI", 48), {CacheConfig::i860()});
    SweepResult bad =
        runWithCaches(makeMatmul("IKJ", 48), {CacheConfig::i860()});
    EXPECT_LT(good.cache[0].misses, bad.cache[0].misses);
    EXPECT_LT(good.cycles[0], bad.cycles[0]);
}

TEST(Interp, ChecksumIsDeterministic)
{
    Program p = makeGmtry(16);
    EXPECT_EQ(runChecksum(p), runChecksum(p));
}

} // namespace
} // namespace memoria
