/** Tests for the resilience harness: budgets/cancellation, the
 *  fault-injection registry, the degradation ladder, and the
 *  crash-isolating batch driver — including a parameterized sweep that
 *  arms every registered fault site in turn and proves the batch
 *  contains the failure to exactly one program. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "check/equiv.hh"
#include "frontend/parser.hh"
#include "harness/batch.hh"
#include "harness/budget.hh"
#include "harness/fault.hh"
#include "harness/ladder.hh"
#include "ir/printer.hh"
#include "suite/corpus.hh"
#include "suite/kernels.hh"
#include "support/stats.hh"

namespace memoria {
namespace {

// ---------------------------------------------------------------------
// Budgets and cancellation

TEST(Budget, PollIsNoOpWithoutScope)
{
    EXPECT_EQ(harness::currentToken(), nullptr);
    EXPECT_NO_THROW(harness::poll("test.site"));
    EXPECT_NO_THROW(harness::chargeIterations(1 << 20, "test.site"));
    EXPECT_NO_THROW(harness::chargeIrNodes(1 << 20, "test.site"));
}

TEST(Budget, DeadlineCancels)
{
    harness::Budget b;
    b.deadlineMs = 1;
    harness::CancelToken token(b);
    harness::BudgetScope scope(&token);

    bool cancelled = false;
    try {
        for (;;)
            harness::poll("test.loop");
    } catch (const harness::CancelledError &c) {
        cancelled = true;
        EXPECT_EQ(c.kind, harness::CancelKind::Deadline);
        EXPECT_EQ(c.where, "test.loop");
    }
    EXPECT_TRUE(cancelled);
}

TEST(Budget, IterationBudgetCancels)
{
    harness::Budget b;
    b.maxInterpIterations = 100;
    harness::CancelToken token(b);
    harness::BudgetScope scope(&token);

    EXPECT_NO_THROW(harness::chargeIterations(100, "test.iter"));
    try {
        harness::chargeIterations(1, "test.iter");
        FAIL() << "expected CancelledError";
    } catch (const harness::CancelledError &c) {
        EXPECT_EQ(c.kind, harness::CancelKind::IterBudget);
    }
    EXPECT_GE(token.iterationsUsed(), 101u);
}

TEST(Budget, IrNodeBudgetCancels)
{
    harness::Budget b;
    b.maxIrNodes = 50;
    harness::CancelToken token(b);
    harness::BudgetScope scope(&token);

    EXPECT_NO_THROW(harness::chargeIrNodes(50, "test.ir"));
    try {
        harness::chargeIrNodes(51, "test.ir");
        FAIL() << "expected CancelledError";
    } catch (const harness::CancelledError &c) {
        EXPECT_EQ(c.kind, harness::CancelKind::IrBudget);
    }
    EXPECT_EQ(token.maxIrNodesSeen(), 51u);
}

TEST(Budget, ExternalCancel)
{
    harness::CancelToken token(harness::Budget{});
    harness::BudgetScope scope(&token);
    EXPECT_NO_THROW(harness::poll("test"));
    token.cancel();
    EXPECT_THROW(harness::poll("test"), harness::CancelledError);
}

TEST(Budget, CancelledErrorIsNotStdException)
{
    // The batch driver's generic containment handlers must never
    // swallow cancellation; the type system enforces it.
    static_assert(
        !std::is_base_of_v<std::exception, harness::CancelledError>);
    harness::CancelToken token(harness::Budget{});
    token.cancel();
    harness::BudgetScope scope(&token);
    bool reachedStdCatch = false;
    try {
        try {
            harness::poll("test");
        } catch (const std::exception &) {
            reachedStdCatch = true;
        }
    } catch (const harness::CancelledError &) {
    }
    EXPECT_FALSE(reachedStdCatch);
}

TEST(Budget, ScopesNest)
{
    harness::CancelToken outer(harness::Budget{});
    harness::BudgetScope outerScope(&outer);
    EXPECT_EQ(harness::currentToken(), &outer);
    {
        harness::CancelToken inner(harness::Budget{});
        harness::BudgetScope innerScope(&inner);
        EXPECT_EQ(harness::currentToken(), &inner);
    }
    EXPECT_EQ(harness::currentToken(), &outer);
}

// ---------------------------------------------------------------------
// Fault registry

class FaultTest : public ::testing::Test
{
  protected:
    void TearDown() override { harness::clearFault(); }
};

TEST_F(FaultTest, CatalogIsPopulated)
{
    std::vector<std::string> sites = harness::faultSites();
    ASSERT_FALSE(sites.empty());
    EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
    for (const char *expected :
         {"parser.parse", "validate.program", "dependence.vectors",
          "transform.permute", "transform.fuse", "transform.distribute",
          "transform.compound", "check.equiv", "interp.run",
          "cachesim.run"}) {
        EXPECT_NE(std::find(sites.begin(), sites.end(), expected),
                  sites.end())
            << expected;
    }
    EXPECT_TRUE(harness::faultSiteSupportsDiag("parser.parse"));
    EXPECT_FALSE(harness::faultSiteSupportsDiag("transform.permute"));
    EXPECT_FALSE(harness::faultSiteSupportsDiag("no.such.site"));
}

TEST_F(FaultTest, ParseFaultSpec)
{
    auto r = harness::parseFaultSpec("transform.permute");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().site, "transform.permute");
    EXPECT_EQ(r.value().action, harness::FaultAction::Throw);
    EXPECT_EQ(r.value().onHit, 1);

    r = harness::parseFaultSpec("interp.run:diag:3@jacobi");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().action, harness::FaultAction::Diag);
    EXPECT_EQ(r.value().onHit, 3);
    EXPECT_EQ(r.value().program, "jacobi");

    EXPECT_FALSE(harness::parseFaultSpec("no.such.site").ok());
    EXPECT_FALSE(
        harness::parseFaultSpec("interp.run:explode").ok());
    EXPECT_FALSE(harness::parseFaultSpec("").ok());
}

TEST_F(FaultTest, SeededFaultIsDeterministic)
{
    harness::FaultSpec a = harness::seededFault(42);
    harness::FaultSpec b = harness::seededFault(42);
    EXPECT_EQ(a.site, b.site);
    EXPECT_EQ(a.action, b.action);
    std::vector<std::string> sites = harness::faultSites();
    EXPECT_NE(std::find(sites.begin(), sites.end(), a.site),
              sites.end());
}

TEST_F(FaultTest, ProgramFilterAndOneShot)
{
    harness::FaultSpec spec;
    spec.site = "transform.permute";
    spec.program = "target";
    harness::armFault(spec);

    // Wrong program: the site must not fire.
    {
        harness::ProgramContext ctx("bystander");
        Program p = makeJacobiBadOrder(8);
        ModelParams params;
        EXPECT_NO_THROW(compoundTransform(p, params));
        EXPECT_FALSE(harness::armedFaultFired());
    }
    // Matching program: fires exactly once, then never again.
    {
        harness::ProgramContext ctx("target");
        Program p = makeJacobiBadOrder(8);
        ModelParams params;
        EXPECT_THROW(compoundTransform(p, params),
                     harness::InjectedFault);
        EXPECT_TRUE(harness::armedFaultFired());
        Program q = makeJacobiBadOrder(8);
        EXPECT_NO_THROW(compoundTransform(q, params));
    }
}

// ---------------------------------------------------------------------
// Degradation ladder

TEST(Ladder, RungConfigurations)
{
    PipelineOptions full = harness::rungPipeline(
        harness::Rung::FullCompound);
    EXPECT_TRUE(full.transform);
    EXPECT_TRUE(full.compound.applyFusion);
    EXPECT_TRUE(full.compound.verify);

    PipelineOptions noFusion =
        harness::rungPipeline(harness::Rung::NoFusion);
    EXPECT_TRUE(noFusion.transform);
    EXPECT_FALSE(noFusion.compound.applyFusion);
    EXPECT_TRUE(noFusion.compound.enableFuseAll);

    PipelineOptions permuteOnly =
        harness::rungPipeline(harness::Rung::PermuteOnly);
    EXPECT_FALSE(permuteOnly.compound.enableFuseAll);
    EXPECT_FALSE(permuteOnly.compound.enableDistribution);
    EXPECT_TRUE(permuteOnly.transform);
    EXPECT_TRUE(permuteOnly.compound.verify);

    PipelineOptions identity =
        harness::rungPipeline(harness::Rung::Identity);
    EXPECT_FALSE(identity.transform);
}

TEST(Ladder, SucceedsOnFirstRung)
{
    harness::LadderOptions opts;
    harness::LadderOutcome out =
        harness::runLadder(opts, [](harness::AttemptContext &) {});
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(out.rung, harness::Rung::FullCompound);
    EXPECT_EQ(out.attempts, 1);
    EXPECT_TRUE(out.failures.empty());
}

TEST(Ladder, DescendsOnFault)
{
    harness::LadderOptions opts;
    opts.backoffBaseMs = 1;
    opts.backoffCapMs = 2;
    int calls = 0;
    harness::LadderOutcome out =
        harness::runLadder(opts, [&](harness::AttemptContext &ctx) {
            ++calls;
            if (ctx.rung != harness::Rung::PermuteOnly)
                throw std::runtime_error("transient");
        });
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(out.rung, harness::Rung::PermuteOnly);
    EXPECT_EQ(out.attempts, 3);
    EXPECT_EQ(calls, 3);
    ASSERT_EQ(out.failures.size(), 2u);
    EXPECT_EQ(out.failures[0].kind, "fault");
    EXPECT_GT(out.backoffMs, 0);
}

TEST(Ladder, RunsOutOfRungs)
{
    harness::LadderOptions opts;
    opts.backoffBaseMs = 0;
    opts.backoffCapMs = 0;
    harness::LadderOutcome out =
        harness::runLadder(opts, [](harness::AttemptContext &) {
            throw std::runtime_error("always");
        });
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.attempts, harness::kNumRungs);
    EXPECT_EQ(out.failures.size(),
              static_cast<size_t>(harness::kNumRungs));
}

TEST(Ladder, TimeoutDescendsWithoutBackoff)
{
    harness::LadderOptions opts;
    opts.backoffBaseMs = 50;
    opts.backoffCapMs = 50;
    harness::LadderOutcome out =
        harness::runLadder(opts, [](harness::AttemptContext &ctx) {
            if (ctx.rung == harness::Rung::FullCompound) {
                ctx.token.cancel();
                ctx.token.poll("test.site");
            }
        });
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(out.rung, harness::Rung::NoFusion);
    ASSERT_EQ(out.failures.size(), 1u);
    EXPECT_EQ(out.failures[0].kind, "timeout");
    EXPECT_EQ(out.backoffMs, 0);
}

/** Every rung must preserve semantics: the differential oracle agrees
 *  between the original and each rung's transformed output. */
TEST(Ladder, EveryRungPreservesSemantics)
{
    ModelParams params;
    using Maker = Program (*)();
    for (Maker make : std::initializer_list<Maker>{
             []() { return makeJacobiBadOrder(8); },
             []() { return makeAdiScalarized(8); },
             []() { return makeMatmul("JKI", 8); }}) {
        Program prog = make();
        for (int r = 0; r < harness::kNumRungs; ++r) {
            PipelineOptions opts =
                harness::rungPipeline(static_cast<harness::Rung>(r));
            OptimizedProgram out =
                optimizeProgram(prog, params, opts);
            EquivResult eq =
                checkEquivalence(out.original, out.transformed);
            EXPECT_TRUE(eq.equivalent)
                << prog.name << " rung "
                << harness::rungName(static_cast<harness::Rung>(r))
                << ": " << eq.detail;
            EXPECT_GT(eq.comparedRuns, 0) << prog.name;
        }
    }
}

// ---------------------------------------------------------------------
// Batch driver

/** An input that parses source text, so the sweep reaches the
 *  parser.parse site without touching the filesystem. */
harness::BatchInput
parsedInput()
{
    return {"parsed", []() -> Result<Program> {
                const char *src = "PROGRAM parsed\n"
                                  "  PARAMETER N = 12\n"
                                  "  REAL*8 A(N,N)\n"
                                  "  REAL*8 B(N,N)\n"
                                  "  DO I = 1, N\n"
                                  "    DO J = 1, N\n"
                                  "      A(I,J) = B(I,J) + 1.0\n"
                                  "    ENDDO\n"
                                  "  ENDDO\n"
                                  "END\n";
                ParseError err;
                std::optional<Program> p = parseProgram(src, &err);
                if (!p)
                    return Result<Program>::err(
                        Diag::error("parse.error", err.str()));
                return Result<Program>(std::move(*p));
            }};
}

/** Small suite that collectively reaches every registered fault site. */
std::vector<harness::BatchInput>
sweepInputs()
{
    std::vector<harness::BatchInput> inputs;
    inputs.push_back({"matmul-jki", []() {
                          return Result<Program>(makeMatmul("JKI", 12));
                      }});
    inputs.push_back({"cholesky", []() {
                          return Result<Program>(makeCholeskyKIJ(12));
                      }});
    inputs.push_back({"adi", []() {
                          return Result<Program>(makeAdiScalarized(12));
                      }});
    inputs.push_back(parsedInput());
    return inputs;
}

TEST(Batch, CleanRunAllOk)
{
    harness::BatchOptions opts;
    opts.jobs = 2;
    harness::BatchReport rep =
        harness::runBatch(sweepInputs(), opts);
    ASSERT_EQ(rep.programs.size(), 4u);
    for (const harness::ProgramOutcome &p : rep.programs) {
        EXPECT_EQ(p.status, harness::BatchStatus::Ok) << p.name;
        EXPECT_EQ(p.rung, harness::Rung::FullCompound) << p.name;
        EXPECT_EQ(p.attempts, 1) << p.name;
        EXPECT_TRUE(p.simulated) << p.name;
        EXPECT_EQ(p.hits + p.misses, p.accesses) << p.name;
        EXPECT_GT(p.accesses, 0u) << p.name;
    }
    EXPECT_TRUE(rep.allOk());
    EXPECT_EQ(rep.containedCount(), 0);
}

TEST(Batch, EveryListedNameResolvesToItsProgram)
{
    // `memoria list` prints the kernel names, then corpusInputName of
    // every corpus program; each must select the program it is listed
    // as, and no name may be printed twice.
    std::set<std::string> seen;
    for (const harness::BatchInput &k : harness::kernelInputs(20)) {
        EXPECT_TRUE(seen.insert(k.name).second) << k.name;
        Result<Program> got = harness::programInput(k.name, 20, 12).load();
        ASSERT_TRUE(got.ok()) << k.name;
        EXPECT_EQ(printProgram(got.value()), printProgram(k.load().value()))
            << k.name;
    }
    int shadowed = 0;
    for (const CorpusSpec &spec : corpusSpecs()) {
        const std::string name = harness::corpusInputName(spec.name);
        EXPECT_TRUE(seen.insert(name).second) << name;
        shadowed += name != spec.name;
        Result<Program> got = harness::programInput(name, 20, 12).load();
        ASSERT_TRUE(got.ok()) << name;
        EXPECT_EQ(printProgram(got.value()),
                  printProgram(buildCorpusProgram(spec, 12)))
            << name;
    }
    // The corpus erlebacher and simple share a kernel's name.
    EXPECT_EQ(shadowed, 2);
    EXPECT_EQ(harness::corpusInputName("erlebacher"), "corpus/erlebacher");

    // Anything else is a file path.
    Result<Program> missing =
        harness::programInput("no-such-program").load();
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.diag().code, "batch.read");
}

TEST(Batch, StatusNamesRoundTrip)
{
    using harness::BatchStatus;
    for (BatchStatus s :
         {BatchStatus::Ok, BatchStatus::Degraded, BatchStatus::Diag,
          BatchStatus::Timeout, BatchStatus::PanicContained})
        EXPECT_EQ(harness::batchStatusFromName(harness::batchStatusName(s)),
                  s);
    EXPECT_FALSE(harness::batchStatusFromName("fuzz.equivalence"));
}

TEST(Batch, BadInputIsContainedAsDiag)
{
    std::vector<harness::BatchInput> inputs = sweepInputs();
    inputs.push_back({"broken", []() -> Result<Program> {
                          return Result<Program>::err(Diag::error(
                              "parse.error", "synthetic failure"));
                      }});
    inputs.push_back({"thrower", []() -> Result<Program> {
                          throw std::runtime_error("loader exploded");
                      }});
    harness::BatchOptions opts;
    harness::BatchReport rep = harness::runBatch(inputs, opts);
    ASSERT_EQ(rep.programs.size(), 6u);
    EXPECT_EQ(rep.programs[4].status, harness::BatchStatus::Diag);
    EXPECT_NE(rep.programs[4].diag.find("synthetic failure"),
              std::string::npos);
    EXPECT_EQ(rep.programs[5].status,
              harness::BatchStatus::PanicContained);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(rep.programs[i].status, harness::BatchStatus::Ok);
    EXPECT_EQ(rep.containedCount(), 2);
}

TEST(Batch, IterationBudgetTimesOutEveryRung)
{
    harness::BatchOptions opts;
    opts.budget.maxInterpIterations = 1;
    // Big enough that the interpreter's 4096-iteration charge stride
    // fires: 24^3 iterations per run on every rung, identity included.
    std::vector<harness::BatchInput> inputs;
    inputs.push_back({"matmul-big", []() {
                          return Result<Program>(makeMatmul("JKI", 24));
                      }});
    harness::BatchReport rep = harness::runBatch(inputs, opts);
    ASSERT_EQ(rep.programs.size(), 1u);
    // Even the identity rung simulates, so every attempt exceeds one
    // interpreter iteration: the program lands on Timeout, contained.
    EXPECT_EQ(rep.programs[0].status, harness::BatchStatus::Timeout);
    EXPECT_EQ(rep.programs[0].attempts, harness::kNumRungs);
    for (const harness::AttemptFailure &f : rep.programs[0].failures)
        EXPECT_EQ(f.kind, "timeout");
}

TEST(Batch, InjectedFaultDegradesOntoLowerRung)
{
    harness::FaultSpec spec;
    spec.site = "transform.permute";
    spec.program = "matmul-jki";
    harness::armFault(spec);
    harness::BatchOptions opts;
    harness::BatchReport rep =
        harness::runBatch(sweepInputs(), opts);
    harness::clearFault();

    const harness::ProgramOutcome &target = rep.programs[0];
    EXPECT_EQ(target.status, harness::BatchStatus::Degraded);
    EXPECT_EQ(target.rung, harness::Rung::NoFusion);
    ASSERT_EQ(target.failures.size(), 1u);
    EXPECT_EQ(target.failures[0].kind, "fault");
    for (size_t i = 1; i < rep.programs.size(); ++i)
        EXPECT_EQ(rep.programs[i].status, harness::BatchStatus::Ok);
}

// ---------------------------------------------------------------------
// JSON report

/** Minimal JSON well-formedness scanner (objects, arrays, strings,
 *  numbers, true/false/null; no unicode escapes beyond \\uXXXX). */
class JsonScanner
{
  public:
    explicit JsonScanner(const std::string &s) : s_(s) {}

    bool
    wellFormed()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        char c = s_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool
    object()
    {
        ++pos_;  // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_;  // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_;  // closing quote
        return true;
    }

    bool
    number()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *lit)
    {
        size_t len = std::string(lit).size();
        if (s_.compare(pos_, len, lit) != 0)
            return false;
        pos_ += len;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

TEST(Batch, JsonReportIsWellFormed)
{
    // Inject a fault so incidents, diag text, and fault_hits are all
    // populated in the rendered report.
    harness::FaultSpec spec;
    spec.site = "transform.permute";
    spec.program = "matmul-jki";
    harness::armFault(spec);
    harness::BatchOptions opts;
    harness::BatchReport rep =
        harness::runBatch(sweepInputs(), opts);
    harness::clearFault();

    std::string json = rep.toJson();
    EXPECT_TRUE(JsonScanner(json).wellFormed()) << json;
    EXPECT_NE(json.find("\"status\":\"degraded\""), std::string::npos);
    EXPECT_NE(json.find("\"summary\""), std::string::npos);
    EXPECT_NE(json.find("\"incidents\""), std::string::npos);
}

// ---------------------------------------------------------------------
// The sweep: every registered fault site, armed one at a time

class FaultSweep : public ::testing::TestWithParam<std::string>
{
  protected:
    void TearDown() override { harness::clearFault(); }
};

TEST_P(FaultSweep, ArmedSiteIsContainedToOneProgram)
{
    const std::string &site = GetParam();
    std::vector<harness::BatchInput> inputs = sweepInputs();
    harness::BatchOptions opts;
    opts.jobs = 2;

    // Clean baseline, with per-program hit attribution.
    harness::clearFault();
    harness::BatchReport clean = harness::runBatch(inputs, opts);
    for (const harness::ProgramOutcome &p : clean.programs)
        ASSERT_EQ(p.status, harness::BatchStatus::Ok) << p.name;

    // Pick the first program that actually reaches this site.
    std::string targetName;
    for (const harness::ProgramOutcome &p : clean.programs) {
        auto hit = p.faultHits.find(site);
        if (hit != p.faultHits.end() && hit->second > 0) {
            targetName = p.name;
            break;
        }
    }
    ASSERT_FALSE(targetName.empty())
        << "site " << site << " is not reached by the sweep inputs";

    harness::FaultSpec spec;
    spec.site = site;
    spec.program = targetName;
    harness::armFault(spec);
    harness::BatchReport rep = harness::runBatch(inputs, opts);
    EXPECT_TRUE(harness::armedFaultFired()) << site;
    harness::clearFault();

    // Exactly one contained failure: the targeted program. Nothing
    // crashed — runBatch returning at all proves the pool survived.
    int contained = 0;
    for (size_t i = 0; i < rep.programs.size(); ++i) {
        const harness::ProgramOutcome &p = rep.programs[i];
        if (p.name == targetName) {
            EXPECT_TRUE(p.contained()) << site;
            ++contained;
        } else {
            EXPECT_EQ(p.status, clean.programs[i].status)
                << site << " bystander " << p.name;
            EXPECT_EQ(p.rung, clean.programs[i].rung)
                << site << " bystander " << p.name;
            if (p.contained())
                ++contained;
        }
        // Cache-counter invariant on every survivor that simulated.
        if (p.simulated) {
            EXPECT_EQ(p.hits + p.misses, p.accesses)
                << site << " " << p.name;
        }
    }
    EXPECT_EQ(contained, 1) << site;
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, FaultSweep,
    ::testing::ValuesIn(harness::faultSites()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        std::replace(name.begin(), name.end(), '.', '_');
        return name;
    });

// ---------------------------------------------------------------------
// Observability under the worker pool

TEST(Obs, CountersAreThreadSafe)
{
    obs::Counter &c = obs::counter("test.harness.concurrent");
    c.reset();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&c]() {
            for (int i = 0; i < 10000; ++i)
                ++c;
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(c.value(), 40000u);
}

TEST(Obs, BatchFeedsStatsRegistry)
{
    uint64_t before = obs::counter("batch.programs").value();
    harness::BatchOptions opts;
    harness::runBatch({sweepInputs()[0]}, opts);
    EXPECT_EQ(obs::counter("batch.programs").value(), before + 1);
}

} // namespace
} // namespace memoria
