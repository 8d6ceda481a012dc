/** Tests for the guarded-pipeline subsystem: the structural IR
 *  validator, the differential-equivalence oracle (including a
 *  sabotage-injected miscompile caught and rolled back by Compound),
 *  and a fuzz-campaign smoke run. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/equiv.hh"
#include "check/fuzz.hh"
#include "check/validate.hh"
#include "driver/fuzzcheck.hh"
#include "frontend/parser.hh"
#include "ir/builder.hh"
#include "ir/printer.hh"
#include "ir/walk.hh"
#include "model/loopcost.hh"
#include "suite/corpus.hh"
#include "suite/kernels.hh"
#include "support/stats.hh"
#include "support/trace.hh"
#include "transform/compound.hh"

namespace memoria {
namespace {

/** A depth-2 nest whose loops cannot legally be interchanged: the
 *  dependence from A(I-1,J+1) has direction (<, >). */
Program
interchangeIllegalNest()
{
    ProgramBuilder b("noswap");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {Ix(n) + 2, Ix(n) + 2});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(i, 2, n,
                 b.loop(j, 1, n,
                        b.assign(a(Ix(i), Ix(j)),
                                 a(Ix(i) - 1, Ix(j) + 1) + 1.0))));
    return b.finish();
}

// ---------------------------------------------------------------------
// Validator

TEST(Validate, AcceptsKernels)
{
    EXPECT_TRUE(validateProgram(makeMatmul("IKJ", 8)).empty());
    EXPECT_TRUE(validateProgram(makeCholeskyKIJ(8)).empty());
    EXPECT_TRUE(validateProgram(makeAdiScalarized(8)).empty());
    EXPECT_TRUE(validateProgram(makeErlebacherDistributed(6)).empty());
}

TEST(Validate, AcceptsWholeCorpus)
{
    for (const CorpusSpec &spec : corpusSpecs()) {
        Program p = buildCorpusProgram(spec, 8);
        EXPECT_TRUE(validateProgram(p).empty()) << p.name;
    }
}

TEST(Validate, RejectsDuplicateLoopVariable)
{
    Program p = makeMatmul("IJK", 8);
    Node *outer = p.body[0].get();
    outer->body[0]->var = outer->var;  // J-loop rebinds I
    std::vector<Diag> diags = validateProgram(p);
    ASSERT_FALSE(diags.empty());
    EXPECT_NE(diags.front().str().find("bound"), std::string::npos);
}

TEST(Validate, RejectsZeroStep)
{
    Program p = makeMatmul("IJK", 8);
    p.body[0]->step = 0;
    EXPECT_FALSE(validateProgram(p).empty());
}

TEST(Validate, RejectsSubscriptRankMismatch)
{
    Program p = interchangeIllegalNest();
    Node *stmt = p.body[0]->body[0]->body[0].get();
    stmt->stmt.write.subs.pop_back();  // A is 2-D, write now rank 1
    EXPECT_FALSE(validateProgram(p).empty());
}

TEST(Validate, RejectsOutOfRangeArrayId)
{
    Program p = interchangeIllegalNest();
    Node *stmt = p.body[0]->body[0]->body[0].get();
    stmt->stmt.write.array = 99;
    EXPECT_FALSE(validateProgram(p).empty());
}

TEST(Validate, RejectsNullRhs)
{
    Program p = interchangeIllegalNest();
    Node *stmt = p.body[0]->body[0]->body[0].get();
    stmt->stmt.rhs = nullptr;
    EXPECT_FALSE(validateProgram(p).empty());
}

TEST(Validate, RejectsElementSizesTheTapeCannotHold)
{
    for (int size : {0, -8, kMaxElemSize + 1, 70000}) {
        Program p = makeMatmul("IJK", 8);
        p.arrays[0].elemSize = size;
        std::vector<Diag> diags = validateProgram(p);
        ASSERT_FALSE(diags.empty()) << size;
        EXPECT_EQ(diags.front().code, "validate.elem_size") << size;
    }
    Program p = makeMatmul("IJK", 8);
    p.arrays[0].elemSize = kMaxElemSize;
    EXPECT_TRUE(validateProgram(p).empty());
}

TEST(Validate, RejectsExcessiveNestingDepth)
{
    Program p = makeMatmul("IJK", 8);  // depth 3
    ValidateOptions opts;
    opts.maxDepth = 2;
    EXPECT_FALSE(validateProgram(p, opts).empty());
}

// ---------------------------------------------------------------------
// Differential-equivalence oracle

TEST(Equiv, EquivalentProgramsAgree)
{
    // Matmul in two loop orders computes the same product.
    EquivResult eq =
        checkEquivalence(makeMatmul("IJK", 8), makeMatmul("JKI", 8));
    EXPECT_TRUE(eq.equivalent) << eq.detail;
    EXPECT_GT(eq.comparedRuns, 0);
}

/** Every symbolic parameter is bound before the arrays are laid out:
 *  A's first extent N-M+1 is 1 at the trial size, although binding N
 *  alone (N = 6, M = 64) would make it -57. */
TEST(Equiv, BindsAllParametersBeforeLayingOut)
{
    std::optional<Program> p = parseProgram("PROGRAM twoparams\n"
                                            "  PARAMETER N = 64\n"
                                            "  PARAMETER M = 64\n"
                                            "  REAL*8 A(N-M+1,N)\n"
                                            "  DO J = 1, N\n"
                                            "    A(1,J) = A(1,J) + 1.0\n"
                                            "  ENDDO\n"
                                            "END\n");
    ASSERT_TRUE(p.has_value());
    EquivOptions opts;
    opts.sizes = {6};
    EquivResult eq = checkEquivalence(*p, *p, opts);
    EXPECT_TRUE(eq.equivalent) << eq.detail;
    EXPECT_EQ(eq.comparedRuns, 3);
    EXPECT_EQ(eq.skippedRuns, 0);
}

TEST(Equiv, DetectsChangedComputation)
{
    Program ref = interchangeIllegalNest();
    Program bad = ref.clone();
    Node *stmt = bad.body[0]->body[0]->body[0].get();
    // Same shape, different constant: A(...) + 2 instead of + 1.
    stmt->stmt.rhs = (Val(stmt->stmt.rhs->kids[0]) + 2.0).p;
    EquivResult eq = checkEquivalence(ref, bad);
    EXPECT_FALSE(eq.equivalent);
    EXPECT_FALSE(eq.detail.empty());
}

TEST(Equiv, DetectsIllegalInterchange)
{
    Program ref = interchangeIllegalNest();
    Program bad = ref.clone();
    std::swap(bad.body[0]->var, bad.body[0]->body[0]->var);
    EquivResult eq = checkEquivalence(ref, bad);
    EXPECT_FALSE(eq.equivalent);
}

// ---------------------------------------------------------------------
// Guarded Compound: injected miscompile is caught and rolled back

/** Installs a RecordingSink and clears the sabotage hook afterwards. */
class GuardTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto sink = std::make_unique<obs::RecordingSink>();
        rec_ = sink.get();
        obs::setTraceSink(std::move(sink));
    }

    void
    TearDown() override
    {
        setCompoundSabotageHook(nullptr);
        obs::setTraceSink(nullptr);
    }

    obs::RecordingSink *rec_ = nullptr;
};

TEST_F(GuardTest, SabotagedNestIsRolledBackExactly)
{
    Program p = interchangeIllegalNest();
    std::string before = printProgram(p);

    // Force the illegal interchange behind the legality analysis's
    // back, as a buggy transformation would.
    setCompoundSabotageHook(
        [](std::vector<NodePtr> &ownerBody, size_t index, size_t) {
            Node *nest = ownerBody[index].get();
            if (nest->isLoop() && !nest->body.empty() &&
                nest->body[0]->isLoop())
                std::swap(nest->var, nest->body[0]->var);
        });

    CompoundResult r = compoundTransform(p, ModelParams{},
                                         CompoundOptions{});

    EXPECT_EQ(r.failVerify, 1);
    ASSERT_EQ(r.nests.size(), 1u);
    EXPECT_TRUE(r.nests[0].rolledBack);
    // Rollback restores the nest byte-for-byte.
    EXPECT_EQ(printProgram(p), before);

    // The rollback is visible in the trace stream.
    bool sawEvent = false;
    for (const auto &e : rec_->events)
        if (e.type == obs::TraceEvent::Type::Event &&
            e.category == "check" && e.name == "verify_failed")
            sawEvent = true;
    EXPECT_TRUE(sawEvent);
}

TEST_F(GuardTest, HealthyPipelineNeverRollsBack)
{
    for (const char *order : {"IJK", "IKJ", "JKI"}) {
        Program p = makeMatmul(order, 8);
        CompoundResult r = compoundTransform(p, ModelParams{},
                                             CompoundOptions{});
        EXPECT_EQ(r.failVerify, 0) << order;
        EXPECT_EQ(r.fusion.failVerify, 0) << order;
    }
}

/** A depth-2 nest J { I-loop; L-loop } whose inner loops FuseAll can
 *  merge, but whose fused nest cannot be interchanged to put J (the
 *  stride-1 subscript) innermost: A(J-1,I+1) and A(J-1,I-1) carry
 *  (<,>) and (<,<), so neither order of I makes the swap legal. */
Program
fuseThenStuckNest()
{
    ProgramBuilder b("fusestuck");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {Ix(n) + 1, Ix(n) + 1});
    Arr c = b.array("B", {Ix(n) + 1, Ix(n) + 1});
    Var j = b.loopVar("J");
    Var i = b.loopVar("I");
    Var l = b.loopVar("L");
    b.add(b.loop(
        j, 2, n,
        b.loop(i, 2, Ix(n) - 1,
               b.assign(a(Ix(j), Ix(i)),
                        a(Ix(j) - 1, Ix(i) + 1) + a(Ix(j) - 1, Ix(i) - 1))),
        b.loop(l, 2, Ix(n) - 1,
               b.assign(c(Ix(j), Ix(l)), c(Ix(j), Ix(l)) + 1.0))));
    return b.finish();
}

/** GuardTest with the stats registry zeroed, so each test reads the
 *  counters its own Compound run moved. */
class VerifySkipTest : public GuardTest
{
  protected:
    void
    SetUp() override
    {
        GuardTest::SetUp();
        obs::statsRegistry().resetValues();
    }

    static uint64_t
    count(const char *name)
    {
        return obs::counter(name).value();
    }
};

TEST_F(VerifySkipTest, NestAlreadyInMemoryOrderIsNotVerified)
{
    Program p = makeMatmul("JKI", 8);
    compoundTransform(p, ModelParams{}, CompoundOptions{});
    EXPECT_EQ(count("check.equiv.checks"), 0u);
    EXPECT_EQ(count("pass.compound.nests_verify_skipped"), 1u);
}

TEST_F(VerifySkipTest, PermutedNestIsVerifiedOnce)
{
    Program p = makeMatmul("IJK", 8);
    compoundTransform(p, ModelParams{}, CompoundOptions{});
    EXPECT_EQ(count("check.equiv.checks"), 1u);
    EXPECT_EQ(count("pass.compound.nests_verify_skipped"), 0u);
}

TEST_F(VerifySkipTest, FuseAllRestoredFromSnapshotIsNotVerified)
{
    Program p = fuseThenStuckNest();
    Program orig = p.clone();
    CompoundOptions opts;
    opts.enableDistribution = false;  // leave FuseAll as the only step
    compoundTransform(p, ModelParams{}, opts);

    // FuseAll really rewrote the nest before Compound put it back.
    EXPECT_GT(count("pass.fuse.fuse_all_merged"), 0u);
    EXPECT_TRUE(structurallyEqual(p, orig));
    EXPECT_EQ(count("check.equiv.checks"), 0u);
    EXPECT_EQ(count("pass.compound.nests_verify_skipped"), 1u);
}

TEST_F(VerifySkipTest, DistributedNestIsStillVerified)
{
    Program p = fuseThenStuckNest();
    CompoundResult r = compoundTransform(p, ModelParams{},
                                         CompoundOptions{});
    ASSERT_EQ(r.nests.size(), 1u);
    EXPECT_TRUE(r.nests[0].usedDistribution);
    EXPECT_GE(p.body.size(), 2u);
    EXPECT_GE(count("check.equiv.checks"), 1u);
    EXPECT_EQ(count("pass.compound.nests_verify_skipped"), 0u);
}

TEST_F(VerifySkipTest, SabotageOfAnUntouchedNestIsStillCaught)
{
    Program p = makeMatmul("JKI", 8);
    std::string before = printProgram(p);

    // Compound leaves JKI alone; the hook then miscompiles it by
    // negating the innermost statement's right-hand side.
    setCompoundSabotageHook(
        [](std::vector<NodePtr> &ownerBody, size_t index, size_t) {
            Node *n = ownerBody[index].get();
            while (n->isLoop())
                n = n->body[0].get();
            n->stmt.rhs = Value::make(ValOp::Neg, {n->stmt.rhs});
        });
    CompoundResult r = compoundTransform(p, ModelParams{},
                                         CompoundOptions{});

    EXPECT_EQ(count("check.equiv.checks"), 1u);
    EXPECT_EQ(count("pass.compound.nests_verify_skipped"), 0u);
    EXPECT_EQ(count("pass.compound.nests_verify_failed"), 1u);
    ASSERT_EQ(r.nests.size(), 1u);
    EXPECT_TRUE(r.nests[0].rolledBack);
    EXPECT_EQ(printProgram(p), before);
}

/** A J-I nest already in memory order, writing A then B, declared
 *  amid arrays it never touches: U and V before A, Z after B. */
Program
nestAmidUnusedArrays()
{
    ProgramBuilder b("amid");
    Var n = b.param("N", 8);
    b.array("U", {n});
    b.array("V", {n, n});
    Arr a = b.array("A", {n, n});
    Arr c = b.array("B", {n, n});
    b.array("Z", {n});
    Var j = b.loopVar("J");
    Var i = b.loopVar("I");
    b.add(b.loop(j, 1, n,
                 b.loop(i, 1, n, b.assign(a(i, j), Val(a(i, j)) + 1.0),
                        b.assign(c(i, j), Val(a(i, j)) * 2.0))));
    return b.finish();
}

/** The innermost loop of a perfect nest. */
Node *
innermostLoop(Node *n)
{
    while (n->body[0]->isLoop())
        n = n->body[0].get();
    return n;
}

/** The detail of the one verify_failed trace event. */
std::string
verifyFailedDetail(const obs::RecordingSink &rec)
{
    std::string detail;
    for (const auto &e : rec.events)
        if (e.type == obs::TraceEvent::Type::Event &&
            e.category == "check" && e.name == "verify_failed")
            for (const auto &[key, value] : e.args)
                if (key == "detail")
                    detail = value.render();
    return detail;
}

TEST_F(VerifySkipTest, CandidateWritingAnArrayTheReferenceNeverTouches)
{
    // The per-nest oracle declares only the arrays either version of
    // the nest references. Z is one only through the candidate: the
    // reference must still declare it, or the stray write would go
    // unseen.
    Program p = nestAmidUnusedArrays();
    const std::string before = printProgram(p);
    const ArrayId z = 4;
    ASSERT_EQ(p.arrays[z].name, "Z");
    setCompoundSabotageHook(
        [z](std::vector<NodePtr> &ownerBody, size_t index, size_t) {
            Node *inner = innermostLoop(ownerBody[index].get());
            Statement s;
            s.id = 100;
            s.write.array = z;
            s.write.subs.push_back(AffineExpr::makeVar(inner->var));
            s.rhs = Value::makeConst(-1.0);
            inner->body.push_back(Node::makeStmt(std::move(s)));
        });
    CompoundResult r = compoundTransform(p, ModelParams{},
                                         CompoundOptions{});

    ASSERT_EQ(r.nests.size(), 1u);
    EXPECT_TRUE(r.nests[0].rolledBack);
    EXPECT_EQ(count("pass.compound.nests_verify_failed"), 1u);
    EXPECT_EQ(printProgram(p), before);
    // A, B and Z on each side; U and V are left out.
    EXPECT_EQ(count("check.equiv.bound_arrays"), 6u);
    // The failure names the array by its source name, not by its
    // nest-local id.
    EXPECT_EQ(verifyFailedDetail(*rec_).rfind("array 'Z' diverges", 0), 0u)
        << verifyFailedDetail(*rec_);
}

TEST_F(VerifySkipTest, CandidateDroppingAWriteIsRolledBack)
{
    // Only the reference references B once its write is dropped.
    Program p = nestAmidUnusedArrays();
    const std::string before = printProgram(p);
    setCompoundSabotageHook(
        [](std::vector<NodePtr> &ownerBody, size_t index, size_t) {
            innermostLoop(ownerBody[index].get())->body.pop_back();
        });
    CompoundResult r = compoundTransform(p, ModelParams{},
                                         CompoundOptions{});

    ASSERT_EQ(r.nests.size(), 1u);
    EXPECT_TRUE(r.nests[0].rolledBack);
    EXPECT_EQ(count("pass.compound.nests_verify_failed"), 1u);
    EXPECT_EQ(printProgram(p), before);
    EXPECT_EQ(count("check.equiv.bound_arrays"), 4u);
    EXPECT_EQ(verifyFailedDetail(*rec_).rfind("array 'B' diverges", 0), 0u)
        << verifyFailedDetail(*rec_);
}

TEST_F(VerifySkipTest, EveryNestIsEitherVerifiedOrSkipped)
{
    std::vector<Program> programs;
    programs.push_back(makeMatmul("IJK", 8));
    programs.push_back(makeMatmul("JKI", 8));
    programs.push_back(makeCholeskyKIJ(8));
    programs.push_back(makeAdiScalarized(8));
    programs.push_back(makeErlebacherDistributed(6));
    programs.push_back(makeVpenta(8));
    for (Program &p : programs)
        compoundTransform(p, ModelParams{}, CompoundOptions{});

    uint64_t verified = 0;
    for (const auto &e : rec_->events)
        if (e.type == obs::TraceEvent::Type::SpanEnd &&
            e.category == "pass.compound" && e.name == "nest")
            for (const auto &[k, v] : e.args)
                if (k == "verified" && v.render() == "true")
                    ++verified;
    uint64_t skipped = count("pass.compound.nests_verify_skipped");
    EXPECT_GT(verified, 0u);
    EXPECT_GT(skipped, 0u);
    EXPECT_EQ(verified + skipped, count("pass.compound.nests_total"));
}

// ---------------------------------------------------------------------
// Analysis reuse: Compound analyzes an unchanged nest once

/** VerifySkipTest's fixture, read for the analysis counters. */
class AnalysisReuseTest : public VerifySkipTest
{
  protected:
    /** The `slots` arg of every pass.compound/nest span, in order. */
    std::vector<size_t>
    nestSlots() const
    {
        std::vector<size_t> out;
        for (const auto &e : rec_->events)
            if (e.type == obs::TraceEvent::Type::SpanEnd &&
                e.category == "pass.compound" && e.name == "nest")
                for (const auto &[k, v] : e.args)
                    if (k == "slots")
                        out.push_back(std::stoul(v.render()));
        return out;
    }

    /**
     * Every one-slot nest's final statistics equal those of a fresh
     * analysis of the transformed nest, whether Compound reused the
     * original analysis or recomputed. Runs without the final fusion
     * pass, so each original top-level node maps to its slot range.
     */
    void
    expectFinalStatsFresh(Program p, bool verify)
    {
        rec_->events.clear();
        const Program orig = p.clone();
        CompoundOptions opts;
        opts.applyFusion = false;
        opts.verify = verify;
        CompoundResult r = compoundTransform(p, ModelParams{}, opts);
        std::vector<size_t> slots = nestSlots();
        ASSERT_EQ(slots.size(), r.nests.size()) << p.name;

        size_t index = 0, nest = 0;
        for (const NodePtr &o : orig.body) {
            if (!o->isLoop() || loopDepth(*o) < 2) {
                ++index;
                continue;
            }
            ASSERT_LT(nest, r.nests.size()) << p.name;
            Node *n = p.body[index].get();
            const NestReport &rep = r.nests[nest];
            if (slots[nest] == 1) {
                NestAnalysis na(p, n, ModelParams{});
                EXPECT_EQ(rep.finalCost.str(), nestCost(na).str())
                    << p.name << " nest " << nest;
                EXPECT_EQ(rep.finalMemoryOrder, nestInMemoryOrder(na))
                    << p.name << " nest " << nest;
                EXPECT_EQ(rep.finalInnerMemoryOrder,
                          innermostInMemoryOrder(na))
                    << p.name << " nest " << nest;
                if (rep.finalMemoryOrder) {
                    EXPECT_EQ(rep.fail, PermuteFail::None)
                        << p.name << " nest " << nest;
                }
            }
            index += slots[nest];
            ++nest;
        }
        EXPECT_EQ(nest, r.nests.size()) << p.name;
    }
};

TEST_F(AnalysisReuseTest, NestInMemoryOrderIsAnalyzedOnce)
{
    Program p = makeMatmul("JKI", 8);
    CompoundResult r = compoundTransform(p, ModelParams{},
                                         CompoundOptions{});
    EXPECT_EQ(count("model.nest_analyses"), 1u);
    EXPECT_EQ(count("dependence.graph_builds"), 1u);
    ASSERT_EQ(r.nests.size(), 1u);
    EXPECT_TRUE(r.nests[0].finalMemoryOrder);
    EXPECT_EQ(r.nests[0].finalCost.str(), r.nests[0].origCost.str());

    std::string analyses;
    for (const auto &e : rec_->events)
        if (e.type == obs::TraceEvent::Type::SpanEnd &&
            e.category == "pass.compound" && e.name == "nest")
            for (const auto &[k, v] : e.args)
                if (k == "analyses")
                    analyses = v.render();
    EXPECT_EQ(analyses, "1");
}

TEST_F(AnalysisReuseTest, PermutedNestIsAnalyzedPerVersion)
{
    // The original, the permuted nest's inner-loop test, and the final
    // statistics of the rewritten nest.
    Program p = makeMatmul("IJK", 8);
    compoundTransform(p, ModelParams{}, CompoundOptions{});
    EXPECT_EQ(count("model.nest_analyses"), 3u);
}

TEST_F(AnalysisReuseTest, SabotagedNestHasItsStatisticsRecomputed)
{
    // The hook negates the statement: caught, rolled back, and the
    // final statistics still come from a fresh analysis.
    Program p = makeMatmul("JKI", 8);
    setCompoundSabotageHook(
        [](std::vector<NodePtr> &ownerBody, size_t index, size_t) {
            Node *n = ownerBody[index].get();
            while (n->isLoop())
                n = n->body[0].get();
            n->stmt.rhs = Value::make(ValOp::Neg, {n->stmt.rhs});
        });
    CompoundResult r = compoundTransform(p, ModelParams{},
                                         CompoundOptions{});
    ASSERT_EQ(r.nests.size(), 1u);
    EXPECT_TRUE(r.nests[0].rolledBack);
    EXPECT_EQ(count("model.nest_analyses"), 2u);
}

TEST_F(AnalysisReuseTest, LegalSabotageShowsInTheFinalStatistics)
{
    // Swapping JKI's two outer loops is legal, so the oracle accepts
    // it; the final statistics must describe the swapped nest, not
    // the memory-order original. With verification off, the hook
    // still counts as a change.
    for (bool verify : {true, false}) {
        Program p = makeMatmul("JKI", 8);
        setCompoundSabotageHook(
            [](std::vector<NodePtr> &ownerBody, size_t index, size_t) {
                Node *nest = ownerBody[index].get();
                std::swap(nest->var, nest->body[0]->var);
            });
        CompoundOptions opts;
        opts.verify = verify;
        CompoundResult r = compoundTransform(p, ModelParams{}, opts);
        ASSERT_EQ(r.nests.size(), 1u);
        EXPECT_FALSE(r.nests[0].rolledBack) << verify;
        EXPECT_TRUE(r.nests[0].origMemoryOrder) << verify;
        EXPECT_FALSE(r.nests[0].finalMemoryOrder) << verify;
        NestAnalysis na(p, p.body[0].get(), ModelParams{});
        EXPECT_EQ(r.nests[0].finalCost.str(), nestCost(na).str())
            << verify;
    }
}

TEST_F(AnalysisReuseTest, FinalStatisticsMatchAFreshAnalysis)
{
    for (bool verify : {true, false}) {
        for (int64_t extent : {12, 14, 16, 18})
            for (const CorpusSpec &spec : corpusSpecs())
                expectFinalStatsFresh(buildCorpusProgram(spec, extent),
                                      verify);
        for (uint64_t seed = 1; seed <= 300; ++seed)
            expectFinalStatsFresh(fuzzProgram(seed), verify);
    }
}

// ---------------------------------------------------------------------
// Fuzzing

TEST(Fuzz, GeneratedProgramsAreDeterministic)
{
    Program a = fuzzProgram(42);
    Program b = fuzzProgram(42);
    EXPECT_EQ(printProgram(a), printProgram(b));
    EXPECT_NE(printProgram(a), printProgram(fuzzProgram(43)));
}

TEST(Fuzz, SmokeCampaign)
{
    FuzzReport rep = runFuzzCampaign(1, 200);
    EXPECT_EQ(rep.programs, 200);
    EXPECT_TRUE(rep.ok());
    for (const std::string &m : rep.messages)
        ADD_FAILURE() << m;
}

} // namespace
} // namespace memoria
