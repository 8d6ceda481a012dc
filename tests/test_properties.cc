/** Property sweeps: randomized programs driven through the analyses
 *  and transformations, with execution as the ground truth. */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "cachesim/reuse.hh"
#include "check/fuzz.hh"
#include "dependence/graph.hh"
#include "dependence/legality.hh"
#include "frontend/parser.hh"
#include "interp/interp.hh"
#include "ir/builder.hh"
#include "ir/printer.hh"
#include "strings.hh"
#include "support/poly.hh"
#include "support/rng.hh"
#include "transform/compound.hh"
#include "transform/permute.hh"
#include "transform/reverse.hh"

namespace memoria {
namespace {

ModelParams
cls4()
{
    ModelParams p;
    p.lineBytes = 32;
    return p;
}

/** A random depth-3 single-statement rectangular nest: the statement
 *  writes and reads a 3-D array through shifted/permuted subscripts,
 *  generating a rich variety of dependence patterns. */
Program
randomNest3(uint64_t seed)
{
    Rng rng(seed);
    ProgramBuilder b("rand3");
    Var n = b.param("N", 6);
    Arr a = b.array("A", {Ix(n) + 4, Ix(n) + 4, Ix(n) + 4});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    Var k = b.loopVar("K");
    Var vars[3] = {i, j, k};

    auto sub = [&](int slot) {
        Var v = vars[rng.below(3)];
        (void)slot;
        return Ix(v) + static_cast<int64_t>(rng.range(0, 4));
    };
    Ref w = a(Ix(vars[0]) + static_cast<int64_t>(rng.range(0, 4)),
              Ix(vars[1]) + static_cast<int64_t>(rng.range(0, 4)),
              Ix(vars[2]) + static_cast<int64_t>(rng.range(0, 4)));
    Val r1 = a(sub(0), sub(1), sub(2));
    Val r2 = a(sub(0), sub(1), sub(2));
    b.add(b.loop(i, 1, n,
                 b.loop(j, 1, n,
                        b.loop(k, 1, n,
                               b.assign(w, r1 + r2 * 2.0)))));
    return b.finish();
}

/** Property: any permutation the legality test admits (and the bound
 *  exchange can realize) preserves execution results exactly. */
class LegalPermutationSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(LegalPermutationSweep, LegalPermutationsPreserveSemantics)
{
    Program base = randomNest3(7700 + GetParam());
    uint64_t expect = runChecksum(base);

    std::vector<int> perm{0, 1, 2};
    int legalCount = 0;
    do {
        Program p = base.clone();
        DependenceGraph g(p, collectStmts(p));
        if (!permutationLegal(g.edges(), perm))
            continue;
        if (!applyPermutation(p.body[0].get(), perm))
            continue;
        ++legalCount;
        EXPECT_EQ(runChecksum(p), expect)
            << "perm " << perm[0] << perm[1] << perm[2];
    } while (std::next_permutation(perm.begin(), perm.end()));
    // The identity is always legal.
    EXPECT_GE(legalCount, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LegalPermutationSweep,
                         ::testing::Range(0, 60));

/** Property: Compound preserves semantics and never worsens the
 *  model's cost on multi-nest random programs. */
class CompoundSweep : public ::testing::TestWithParam<int>
{
};

Program
randomProgram(uint64_t seed)
{
    Rng rng(seed);
    ProgramBuilder b("randprog");
    Var n = b.param("N", 7);
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    int nests = static_cast<int>(rng.range(2, 4));
    Arr shared = b.array("S", {Ix(n) + 4, Ix(n) + 4});
    for (int t = 0; t < nests; ++t) {
        Arr a = b.array(numbered("A", t),
                        {Ix(n) + 4, Ix(n) + 4});
        bool transposed = rng.chance(1, 2);
        int64_t di = rng.range(0, 2);
        int64_t dj = rng.range(0, 2);
        Ref w = transposed ? a(j, i) : a(i, j);
        Val r = rng.chance(1, 2)
                    ? Val(shared(Ix(i) + di, Ix(j) + dj))
                    : Val(a(Ix(i) + di, Ix(j) + dj));
        NodePtr stmt = b.assign(w, r + 1.0);
        if (rng.chance(1, 2))
            b.add(b.loop(i, 1, n, b.loop(j, 1, n, std::move(stmt))));
        else
            b.add(b.loop(j, 1, n, b.loop(i, 1, n, std::move(stmt))));
    }
    return b.finish();
}

TEST_P(CompoundSweep, SemanticsAndCost)
{
    Program p = randomProgram(4400 + GetParam());
    uint64_t before = runChecksum(p);
    CompoundResult r = compoundTransform(p, cls4());
    EXPECT_EQ(runChecksum(p), before);
    for (const auto &rep : r.nests)
        EXPECT_TRUE(rep.finalCost <= rep.origCost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompoundSweep, ::testing::Range(0, 60));

/** Property: fully associative LRU miss ratios are monotonically
 *  non-increasing in capacity (stack inclusion). */
class ReuseMonotoneSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ReuseMonotoneSweep, MissRatioMonotone)
{
    Rng rng(900 + GetParam());
    ReuseDistanceAnalyzer rd(32);
    for (int t = 0; t < 4000; ++t)
        rd.access(rng.below(256) * 32, 8, false);
    double prev = 1.0;
    for (uint64_t cap = 1; cap <= 512; cap *= 2) {
        double mr = rd.missRatio(cap);
        EXPECT_LE(mr, prev + 1e-12);
        prev = mr;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReuseMonotoneSweep,
                         ::testing::Range(0, 10));

/** Property: the reuse analyzer's predicted misses equal a fully
 *  associative LRU cache simulation on random traces. */
class ReuseVsCacheSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ReuseVsCacheSweep, ExactAgreement)
{
    Rng rng(31 + GetParam());
    ReuseDistanceAnalyzer rd(32);
    CacheConfig cfg;
    cfg.lineBytes = 32;
    cfg.associativity = 32;
    cfg.sizeBytes = 32 * 32;  // 32 lines, fully associative
    Cache cache(cfg);
    for (int t = 0; t < 3000; ++t) {
        uint64_t addr = rng.below(128) * 32;
        rd.access(addr, 8, false);
        cache.access(addr, 8, false);
    }
    uint64_t warmMisses =
        cache.stats().misses - cache.stats().coldMisses;
    double predicted =
        rd.missRatio(32) * static_cast<double>(rd.warmAccesses());
    EXPECT_DOUBLE_EQ(predicted, static_cast<double>(warmMisses));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReuseVsCacheSweep,
                         ::testing::Range(0, 10));

/** Property: Poly arithmetic is a commutative ring consistent with
 *  pointwise evaluation. */
class PolyRingSweep : public ::testing::TestWithParam<int>
{
};

Poly
randomPoly(Rng &rng)
{
    Poly p;
    int deg = static_cast<int>(rng.range(0, 4));
    for (int k = 0; k <= deg; ++k)
        p += Poly::term(static_cast<double>(rng.range(-4, 4)), k);
    return p;
}

TEST_P(PolyRingSweep, RingLawsAndEval)
{
    Rng rng(555 + GetParam());
    Poly a = randomPoly(rng);
    Poly b = randomPoly(rng);
    Poly c = randomPoly(rng);

    EXPECT_TRUE(a + b == b + a);
    EXPECT_TRUE(a * b == b * a);
    EXPECT_TRUE((a + b) * c == a * c + b * c);
    EXPECT_TRUE(a - a == Poly());

    for (double n : {1.0, 3.0, 17.0}) {
        EXPECT_NEAR((a * b).eval(n), a.eval(n) * b.eval(n), 1e-6);
        EXPECT_NEAR((a + b).eval(n), a.eval(n) + b.eval(n), 1e-9);
    }
    // Dominating-term comparison agrees with evaluation at large n
    // when the polynomials differ.
    if (!(a == b)) {
        double big = 1e6;
        EXPECT_EQ(a < b, a.eval(big) < b.eval(big));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolyRingSweep, ::testing::Range(0, 40));

/** Property: reversal of any loop of a reduction-free random nest is
 *  an exact transformation (it revisits the same index set). */
class ReversalSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ReversalSweep, ReversedLoopSameResults)
{
    Rng rng(1200 + GetParam());
    ProgramBuilder b("rev");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {Ix(n) + 2, Ix(n) + 2});
    Arr c = b.array("C", {Ix(n) + 2, Ix(n) + 2});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    int64_t di = rng.range(0, 2), dj = rng.range(0, 2);
    b.add(b.loop(i, 1, n,
                 b.loop(j, 1, n,
                        b.assign(a(i, j),
                                 c(Ix(i) + di, Ix(j) + dj) * 2.0))));
    Program p = b.finish();
    uint64_t before = runChecksum(p);

    // Reverse either loop (or both): A and C are disjoint arrays, so
    // every visit order computes the same values.
    Node *outer = p.body[0].get();
    Node *inner = outer->body[0].get();
    if (rng.chance(1, 2))
        reverseLoop(*outer);
    reverseLoop(*inner);
    EXPECT_EQ(runChecksum(p), before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReversalSweep, ::testing::Range(0, 20));

// ---------------------------------------------------------------------

/** Property: printing a fuzzed program and parsing it back reaches a
 *  textual fixpoint and preserves execution results exactly. */
class RoundTripSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RoundTripSweep, PrintParsePrintIsFixpoint)
{
    uint64_t seed = 9000 + static_cast<uint64_t>(GetParam());
    Program p = fuzzProgram(seed);
    std::string text = printProgram(p);

    ParseError err;
    auto back = parseProgram(text, &err);
    ASSERT_TRUE(back) << err.str() << "\n" << text;
    EXPECT_EQ(printProgram(*back), text);
    EXPECT_EQ(runChecksum(*back), runChecksum(p));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripSweep, ::testing::Range(0, 40));

} // namespace
} // namespace memoria
