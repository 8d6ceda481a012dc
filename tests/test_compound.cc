/** End-to-end Compound tests (Figure 6): every kernel keeps its
 *  semantics and never gets a worse LoopCost. */

#include <gtest/gtest.h>

#include "interp/interp.hh"
#include "ir/builder.hh"
#include "ir/printer.hh"
#include "model/loopcost.hh"
#include "suite/kernels.hh"
#include "transform/compound.hh"

namespace memoria {
namespace {

ModelParams
cls4()
{
    ModelParams p;
    p.lineBytes = 32;
    return p;
}

/** Run Compound and assert semantics preservation. */
CompoundResult
runCompound(Program &p)
{
    uint64_t before = runChecksum(p);
    CompoundResult r = compoundTransform(p, cls4());
    EXPECT_EQ(runChecksum(p), before) << p.name;
    return r;
}

TEST(Compound, MatmulWorstOrderFixed)
{
    Program p = makeMatmul("IKJ", 20);
    CompoundResult r = runCompound(p);
    ASSERT_EQ(r.nests.size(), 1u);
    const NestReport &rep = r.nests[0];
    EXPECT_FALSE(rep.origMemoryOrder);
    EXPECT_TRUE(rep.finalMemoryOrder);
    EXPECT_TRUE(rep.finalInnerMemoryOrder);
    EXPECT_TRUE(rep.usedPermutation);
    EXPECT_TRUE(rep.finalCost < rep.origCost);
    // Final equals ideal for a fully permutable nest.
    EXPECT_TRUE(rep.finalCost == rep.idealCost);
}

TEST(Compound, MatmulAlreadyOptimalUntouched)
{
    Program p = makeMatmul("JKI", 16);
    Program orig = p.clone();
    CompoundResult r = runCompound(p);
    EXPECT_TRUE(r.nests[0].origMemoryOrder);
    EXPECT_TRUE(structurallyEqual(p, orig));
}

TEST(Compound, CholeskyDistributesAndInterchanges)
{
    Program p = makeCholeskyKIJ(16);
    CompoundResult r = runCompound(p);
    EXPECT_EQ(r.distributions, 1);
    EXPECT_EQ(r.resultingNests, 2);
    ASSERT_EQ(r.nests.size(), 1u);
    EXPECT_TRUE(r.nests[0].usedDistribution);
    EXPECT_EQ(runChecksum(p), runChecksum(makeCholeskyKJI(16)));
}

TEST(Compound, AdiFusesAndInterchanges)
{
    Program p = makeAdiScalarized(16);
    CompoundResult r = runCompound(p);
    ASSERT_EQ(r.nests.size(), 1u);
    const NestReport &rep = r.nests[0];
    EXPECT_TRUE(rep.usedFusion);
    EXPECT_TRUE(rep.finalInnerMemoryOrder);
    // Result should match the hand-fused Figure 3(c) semantics.
    EXPECT_EQ(runChecksum(p), runChecksum(makeAdiFused(16)));
    // Structure: K outer, I inner, two statements.
    Node *top = p.body[0].get();
    auto chain = perfectChain(top);
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(p.varName(chain[0]->var), "K");
    EXPECT_EQ(p.varName(chain[1]->var), "I");
    EXPECT_EQ(countStmts(*top), 2);
}

TEST(Compound, GmtryGetsUnitStride)
{
    Program p = makeGmtry(14);
    CompoundResult r = runCompound(p);
    ASSERT_EQ(r.nests.size(), 1u);
    EXPECT_TRUE(r.nests[0].usedDistribution ||
                r.nests[0].usedPermutation);
    EXPECT_TRUE(r.nests[0].finalCost < r.nests[0].origCost);
}

TEST(Compound, SimpleHydroReordered)
{
    Program p = makeSimpleHydro(16);
    CompoundResult r = runCompound(p);
    for (const auto &rep : r.nests) {
        EXPECT_TRUE(rep.finalMemoryOrder);
        EXPECT_TRUE(rep.finalCost < rep.origCost);
    }
}

TEST(Compound, VpentaPermutedAndMaybeFused)
{
    Program p = makeVpenta(16);
    CompoundResult r = runCompound(p);
    for (const auto &rep : r.nests)
        EXPECT_TRUE(rep.finalInnerMemoryOrder);
}

TEST(Compound, ErlebacherFusionStats)
{
    Program p = makeErlebacherDistributed(10);
    CompoundResult r = runCompound(p);
    EXPECT_GT(r.fusion.candidates, 0);
    EXPECT_GT(r.fusion.fused, 0);
    EXPECT_EQ(r.totalNests, 5);
}

TEST(Compound, FusionAblationFlag)
{
    Program p1 = makeErlebacherDistributed(10);
    uint64_t before = runChecksum(p1);
    CompoundOptions noFusion;
    noFusion.applyFusion = false;
    CompoundResult r1 = compoundTransform(p1, cls4(), noFusion);
    EXPECT_EQ(runChecksum(p1), before);
    EXPECT_EQ(r1.fusion.fused, 0);
    EXPECT_EQ(p1.body.size(), 5u);
}

TEST(Compound, WavefrontReportsDependenceFailure)
{
    ProgramBuilder b("wave");
    Var n = b.param("N", 16);
    Arr a = b.array("A", {Ix(n) + 2, Ix(n) + 2});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(i, 2, n,
                 b.loop(j, 2, n,
                        b.assign(a(i, j),
                                 a(Ix(i) - 1, Ix(j) + 1) +
                                     a(Ix(i) - 1, Ix(j) - 1)))));
    Program p = b.finish();
    CompoundResult r = runCompound(p);
    ASSERT_EQ(r.nests.size(), 1u);
    EXPECT_FALSE(r.nests[0].finalMemoryOrder);
    EXPECT_EQ(r.nests[0].fail, PermuteFail::Dependences);
}

TEST(Compound, EveryKernelSemanticsPreserved)
{
    std::vector<Program> programs;
    programs.push_back(makeMatmul("IKJ", 12));
    programs.push_back(makeCholeskyKIJ(12));
    programs.push_back(makeAdiScalarized(10));
    programs.push_back(makeErlebacherDistributed(8));
    programs.push_back(makeErlebacherHand(8));
    programs.push_back(makeGmtry(10));
    programs.push_back(makeSimpleHydro(12));
    programs.push_back(makeVpenta(12));
    programs.push_back(makeJacobiBadOrder(12));
    for (auto &p : programs) {
        SCOPED_TRACE(p.name);
        runCompound(p);
    }
}

TEST(Compound, CostNeverWorsens)
{
    std::vector<Program> programs;
    programs.push_back(makeMatmul("IKJ", 64));
    programs.push_back(makeCholeskyKIJ(64));
    programs.push_back(makeAdiScalarized(64));
    programs.push_back(makeGmtry(64));
    programs.push_back(makeVpenta(64));
    for (auto &p : programs) {
        SCOPED_TRACE(p.name);
        CompoundResult r = runCompound(p);
        for (const auto &rep : r.nests)
            EXPECT_TRUE(rep.finalCost <= rep.origCost);
    }
}

TEST(Compound, SimulatedMissesImproveForScalarizedKernels)
{
    // The bottom line: transformed programs miss less in the simulated
    // i860 cache (paper Table 4's direction of change).
    for (auto make : {makeGmtry, makeVpenta}) {
        Program orig = make(48);
        Program opt = orig.clone();
        compoundTransform(opt, cls4());
        SweepResult before = runWithCaches(orig, {CacheConfig::i860()});
        SweepResult after = runWithCaches(opt, {CacheConfig::i860()});
        EXPECT_EQ(before.checksum, after.checksum);
        EXPECT_LT(after.cache[0].misses, before.cache[0].misses) << orig.name;
    }
}

} // namespace
} // namespace memoria
