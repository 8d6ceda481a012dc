/** End-to-end driver tests: report construction, changed-nest mapping,
 *  hit-rate simulation, the ideal program. */

#include <gtest/gtest.h>

#include "driver/memoria.hh"
#include "frontend/parser.hh"
#include "suite/corpus.hh"
#include "suite/kernels.hh"

namespace memoria {
namespace {

ModelParams
cls4()
{
    ModelParams p;
    p.lineBytes = 32;
    return p;
}

TEST(Driver, MatmulReportAndRates)
{
    Program p = makeMatmul("IKJ", 32);
    OptimizedProgram opt = optimizeProgram(p, cls4());

    EXPECT_EQ(opt.report.nests, 1);
    EXPECT_EQ(opt.report.nestsOrig, 0);
    EXPECT_EQ(opt.report.nestsPerm, 1);
    EXPECT_EQ(opt.report.nestsFail, 0);
    EXPECT_GT(opt.report.ratioFinal, 1.0);
    EXPECT_TRUE(optimizedProcedures(opt).any());

    // Semantics: original and transformed agree.
    EXPECT_EQ(runChecksum(opt.original), runChecksum(opt.transformed));

    std::vector<Performance> perf;
    Result<std::vector<HitRates>> rates =
        simulateHitRates(opt, {CacheConfig::i860()}, &perf);
    ASSERT_TRUE(rates.ok());
    EXPECT_GT(rates.value()[0].wholeFinal, rates.value()[0].wholeOrig);
    EXPECT_GT(rates.value()[0].optFinal, rates.value()[0].optOrig);

    // The cycles come from the same whole-program runs.
    ASSERT_EQ(perf.size(), 1u);
    EXPECT_GT(perf[0].speedup(), 1.0);
    Result<std::vector<Performance>> alone =
        simulatePerformance(opt, {CacheConfig::i860()});
    ASSERT_TRUE(alone.ok());
    EXPECT_EQ(alone.value()[0].origCycles, perf[0].origCycles);
    EXPECT_EQ(alone.value()[0].finalCycles, perf[0].finalCycles);
}

TEST(Driver, OptimalProgramUntouched)
{
    Program p = makeMatmul("JKI", 24);
    OptimizedProgram opt = optimizeProgram(p, cls4());
    EXPECT_EQ(opt.report.nestsOrig, 1);
    EXPECT_FALSE(optimizedProcedures(opt).any());
    EXPECT_TRUE(structurallyEqual(opt.original, opt.transformed));
    HitRates rates =
        simulateHitRates(opt, {CacheConfig::i860()}).value()[0];
    EXPECT_DOUBLE_EQ(rates.wholeOrig, rates.wholeFinal);
}

TEST(Driver, FaultingProgramReportsDiag)
{
    // B(I,J) = A(I+1) reads A(N+1) on the last iteration of I.
    std::optional<Program> p = parseProgram("PROGRAM oob\n"
                                            "  PARAMETER N = 8\n"
                                            "  REAL*8 A(N)\n"
                                            "  REAL*8 B(N,N)\n"
                                            "  DO I = 1, N\n"
                                            "    DO J = 1, N\n"
                                            "      B(I,J) = A(I+1)\n"
                                            "    ENDDO\n"
                                            "  ENDDO\n"
                                            "END\n");
    ASSERT_TRUE(p);
    OptimizedProgram opt = optimizeProgram(*p, cls4());
    const std::vector<CacheConfig> configs = {CacheConfig::rs6000(),
                                              CacheConfig::i860()};
    std::vector<Performance> perf;
    Result<std::vector<HitRates>> rates =
        simulateHitRates(opt, configs, &perf);
    ASSERT_FALSE(rates.ok());
    EXPECT_EQ(rates.diag().code, "interp.oob");
    EXPECT_TRUE(perf.empty());
    Result<std::vector<Performance>> cycles =
        simulatePerformance(opt, configs);
    ASSERT_FALSE(cycles.ok());
    EXPECT_EQ(cycles.diag().code, "interp.oob");
}

TEST(Driver, IdealIgnoresLegality)
{
    // The wavefront nest cannot legally permute, but the ideal program
    // gets the better order anyway (Section 5.2's Ideal column).
    Program wave = makeJacobiBadOrder(16);
    OptimizedProgram opt = optimizeProgram(wave, cls4());
    EXPECT_GE(opt.report.ratioIdeal, opt.report.ratioFinal);
}

TEST(Driver, FailureBreakdownRecorded)
{
    const auto &specs = corpusSpecs();
    // trfd: 48% of nests fail, mostly by dependences.
    const CorpusSpec *trfd = nullptr;
    for (const auto &s : specs)
        if (s.name == "trfd")
            trfd = &s;
    ASSERT_TRUE(trfd);
    Program p = buildCorpusProgram(*trfd, 10);
    OptimizedProgram opt = optimizeProgram(p, cls4());
    EXPECT_GT(opt.report.nestsFail, 0);
    EXPECT_GT(opt.report.failDeps, 0);
    EXPECT_GT(opt.report.failBounds, 0);
    EXPECT_EQ(opt.report.failDeps + opt.report.failBounds,
              opt.report.nestsFail);
}

TEST(Driver, CorpusProgramRoundTrip)
{
    const CorpusSpec &arc2d = corpusSpecs()[1];
    ASSERT_EQ(arc2d.name, "arc2d");
    Program p = buildCorpusProgram(arc2d, 10);
    OptimizedProgram opt = optimizeProgram(p, cls4());
    EXPECT_EQ(runChecksum(opt.original), runChecksum(opt.transformed));
    EXPECT_EQ(opt.report.nests, arc2d.nests);
    // arc2d permutes a good fraction of nests and fuses some.
    EXPECT_GT(opt.report.nestsPerm, 0);
    EXPECT_GT(opt.report.fusion.fused, 0);
    // Whole-program stats are self-consistent.
    EXPECT_EQ(opt.report.nestsOrig + opt.report.nestsPerm +
                  opt.report.nestsFail,
              opt.report.nests);
    EXPECT_EQ(opt.report.innerOrig + opt.report.innerPerm +
                  opt.report.innerFail,
              opt.report.nests);
}

TEST(Driver, AccessStatsImproveUnitStride)
{
    Program p = makeVpenta(24);
    OptimizedProgram opt = optimizeProgram(p, cls4());
    AccessStats orig = programAccessStats(opt.original, cls4());
    AccessStats final = programAccessStats(opt.transformed, cls4());
    Program idealP = idealProgram(p, cls4());
    AccessStats ideal = programAccessStats(idealP, cls4());
    // Transformation raises the unit-stride share (Table 5's story).
    EXPECT_GT(final.pctUnit(), orig.pctUnit());
    EXPECT_GE(ideal.pctUnit(), orig.pctUnit());
}

TEST(Driver, AblationWithoutFusion)
{
    Program p = makeErlebacherDistributed(10);
    PipelineOptions noFusion;
    noFusion.compound.applyFusion = false;
    OptimizedProgram withF = optimizeProgram(p, cls4());
    OptimizedProgram withoutF = optimizeProgram(p, cls4(), noFusion);
    EXPECT_GT(withF.report.fusion.fused, 0);
    EXPECT_EQ(withoutF.report.fusion.fused, 0);
    EXPECT_EQ(runChecksum(withoutF.transformed),
              runChecksum(withF.transformed));
}

} // namespace
} // namespace memoria
