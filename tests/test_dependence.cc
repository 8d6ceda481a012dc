/** Dependence analysis tests: vectors, known SIV cases, oracle sweeps,
 *  legality predicates, and a golden digest of the kernel and corpus
 *  nest graphs. */

#include <gtest/gtest.h>

#include "dependence/graph.hh"
#include "dependence/legality.hh"
#include "harness/batch.hh"
#include "ir/builder.hh"
#include "ir/walk.hh"
#include "model/loopcost.hh"
#include "oracle.hh"
#include "suite/kernels.hh"
#include "support/hash.hh"
#include "support/rng.hh"
#include "transform/distribute.hh"

namespace memoria {
namespace {

TEST(DepVector, LexPredicates)
{
    DepVector v;
    v.levels = {DepLevel::exact(0), DepLevel::exact(1)};
    EXPECT_FALSE(v.maybeNegative());
    EXPECT_FALSE(v.allEq());

    DepVector eq;
    eq.levels = {DepLevel::exact(0), DepLevel::exact(0)};
    EXPECT_TRUE(eq.allEq());
    EXPECT_FALSE(eq.maybeNegative());

    DepVector amb;
    amb.levels = {DepLevel::dir(kDirAll)};
    EXPECT_TRUE(amb.maybeNegative());

    DepVector neg;
    neg.levels = {DepLevel::exact(-1), DepLevel::exact(2)};
    EXPECT_TRUE(neg.maybeNegative());
    DepVector rev = neg.reversed();
    EXPECT_FALSE(rev.maybeNegative());
    EXPECT_EQ(rev.levels[0].dist, 1);
    EXPECT_EQ(rev.levels[1].dist, -2);
}

TEST(DepVector, ReverseLevel)
{
    DepVector v;
    v.levels = {DepLevel::exact(1), DepLevel::exact(-1)};
    DepVector r = v.withLevelReversed(1);
    EXPECT_EQ(r.levels[1].dist, 1);
    EXPECT_EQ(r.str(), "(1, 1)");
}

/** Helper: build a 2-deep nest over A with the two given refs. */
struct Pair2D
{
    Program prog;
    DependenceGraph *graph = nullptr;
};

TEST(DepTest, StrongSivDistance)
{
    // A(I,J) = A(I-1,J) + 1: flow dependence, distance (1, 0).
    ProgramBuilder b("siv");
    Var n = b.param("N", 16);
    Arr a = b.array("A", {n, n});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(i, 2, n,
                 b.loop(j, 1, n,
                        b.assign(a(i, j), a(Ix(i) - 1, j) + 1.0))));
    Program p = b.finish();
    DependenceGraph g(p, collectStmts(p));

    bool sawFlow = false;
    for (const auto &e : g.edges()) {
        if (e.type != DepType::Flow)
            continue;
        ASSERT_EQ(e.vec.levels.size(), 2u);
        EXPECT_TRUE(e.vec.levels[0].hasDist);
        EXPECT_EQ(e.vec.levels[0].dist, 1);
        EXPECT_EQ(e.vec.levels[1].dist, 0);
        sawFlow = true;
    }
    EXPECT_TRUE(sawFlow);
}

TEST(DepTest, ZivIndependence)
{
    // A(1,J) and A(2,J) never overlap.
    ProgramBuilder b("ziv");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {n, n});
    Var j = b.loopVar("J");
    b.add(b.loop(j, 1, n, b.assign(a(1, j), a(2, j) + 1.0)));
    Program p = b.finish();
    DependenceGraph g(p, collectStmts(p));
    for (const auto &e : g.edges())
        EXPECT_EQ(e.type, DepType::Input) << e.vec.str();
}

TEST(DepTest, TriangularIndependence)
{
    // Inside DO K / DO I=K+1 / DO J=K+1,I: A(I,J) with J >= K+1 never
    // aliases column K of A(I,K) in the same K iteration. The engine
    // must prove the '=' direction at K infeasible via the triangular
    // bounds (this powers the Cholesky distribution).
    Program p = makeCholeskyKIJ(12);
    DependenceGraph g(p, collectStmts(p));
    // Every backward edge S3 -> S2 must be definitely carried by the K
    // loop (level 0): distribution of the I loop (level 1) drops such
    // edges, which is what makes the Figure 7 split legal.
    bool sawForward = false;
    for (const auto &e : g.edges()) {
        if (!e.constrains())
            continue;
        if (e.src->id == 2 && e.dst->id == 1) {
            EXPECT_TRUE(definitelyCarriedBefore(e, 1))
                << "S3->S2 edge would block distribution: "
                << e.vec.str();
        }
        if (e.src->id == 1 && e.dst->id == 2)
            sawForward = true;
    }
    EXPECT_TRUE(sawForward);
}

TEST(DepTest, OpaqueSubscriptsAreConservative)
{
    ProgramBuilder b("idx");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {n});
    Arr ind = b.array("IND", {n});
    Var i = b.loopVar("I");
    Ref lhs = a.at({opaqueSub(Val(ind(i)))});
    b.add(b.loop(i, 1, n, b.assign(lhs, Val(lhs) + 1.0)));
    Program p = b.finish();
    DependenceGraph g(p, collectStmts(p));

    // The write must conservatively depend on itself across iterations.
    bool carriedOutput = false;
    for (const auto &e : g.edges())
        if (e.type == DepType::Output && !e.loopIndependent)
            carriedOutput = true;
    EXPECT_TRUE(carriedOutput);
}

TEST(DepTest, CoupledSubscriptsIndependent)
{
    // A(I, I) vs A(I, I+1): distances pinned per dim conflict -> none.
    ProgramBuilder b("coupled");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {n, Ix(n) + 1});
    Var i = b.loopVar("I");
    b.add(b.loop(i, 1, n,
                 b.assign(a(i, i), a(i, Ix(i) + 1) + 1.0)));
    Program p = b.finish();
    DependenceGraph g(p, collectStmts(p));
    for (const auto &e : g.edges())
        EXPECT_FALSE(e.constrains() && !e.loopIndependent)
            << depTypeName(e.type) << " " << e.vec.str();
}

TEST(DepGraph, OracleCoversKernels)
{
    std::vector<Program> programs;
    programs.push_back(makeMatmul("IJK", 8));
    programs.push_back(makeMatmul("JKI", 8));
    programs.push_back(makeCholeskyKIJ(10));
    programs.push_back(makeCholeskyKJI(10));
    programs.push_back(makeAdiScalarized(9));
    programs.push_back(makeAdiFused(9));
    programs.push_back(makeGmtry(9));
    programs.push_back(makeSimpleHydro(9));
    programs.push_back(makeErlebacherDistributed(7));
    programs.push_back(makeJacobiBadOrder(9));

    for (auto &p : programs) {
        DependenceGraph g(p, collectStmts(p));
        auto deps = oracleDependences(p, /*includeInput=*/true);
        std::string miss;
        EXPECT_TRUE(graphCovers(g, deps, &miss))
            << p.name << ": " << miss;
    }
}

/** Property sweep: random rectangular 2-3 deep nests with shifted
 *  subscripts; every oracle dependence must be covered. */
class RandomNestSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomNestSweep, GraphCoversOracle)
{
    Rng rng(1234 + GetParam());
    ProgramBuilder b("rand");
    Var n = b.param("N", 7);
    Arr a = b.array("A", {Ix(n) + 4, Ix(n) + 4});
    Arr c = b.array("C", {Ix(n) + 4, Ix(n) + 4});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");

    auto randSub = [&](Var v) {
        // v + shift in [-2, 2] (kept in bounds by the +4 extents).
        return Ix(v) + static_cast<int64_t>(rng.range(0, 4));
    };
    Arr arr0 = rng.chance(1, 2) ? a : c;
    Arr arr1 = rng.chance(1, 2) ? a : c;
    NodePtr s1 = b.assign(arr0(randSub(i), randSub(j)),
                          arr1(randSub(i), randSub(j)) + 1.0);
    NodePtr s2 = b.assign(arr1(randSub(j), randSub(i)),
                          arr0(randSub(i), randSub(j)) * 2.0);
    std::vector<NodePtr> body;
    body.push_back(std::move(s1));
    body.push_back(std::move(s2));
    b.add(b.loop(i, 1, n, b.loop(j, 1, n, std::move(body))));
    Program p = b.finish();

    DependenceGraph g(p, collectStmts(p));
    auto deps = oracleDependences(p, true);
    std::string miss;
    EXPECT_TRUE(graphCovers(g, deps, &miss)) << miss;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNestSweep, ::testing::Range(0, 40));

TEST(Legality, InterchangeBlockedByAntidiagonalDep)
{
    // A(I,J) = A(I-1,J+1): distance (1,-1); interchange is illegal.
    ProgramBuilder b("wave");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {Ix(n) + 2, Ix(n) + 2});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(i, 2, n,
                 b.loop(j, 1, n,
                        b.assign(a(i, j),
                                 a(Ix(i) - 1, Ix(j) + 1) + 1.0))));
    Program p = b.finish();
    DependenceGraph g(p, collectStmts(p));
    EXPECT_FALSE(permutationLegal(g.edges(), {1, 0}));
    EXPECT_TRUE(permutationLegal(g.edges(), {0, 1}));
    // Reversing J alone is legal, reversing I alone is not: it would
    // run the carrying loop backwards.
    EXPECT_TRUE(permutationLegal(edgesWithReversedLevels(g.edges(), {1}),
                                 {0, 1}));
    EXPECT_FALSE(permutationLegal(edgesWithReversedLevels(g.edges(), {0}),
                                  {0, 1}));
}

TEST(Legality, MatmulFullyPermutable)
{
    Program p = makeMatmul("IJK", 8);
    DependenceGraph g(p, collectStmts(p));
    std::vector<std::vector<int>> perms = {{0, 1, 2}, {0, 2, 1},
                                           {1, 0, 2}, {1, 2, 0},
                                           {2, 0, 1}, {2, 1, 0}};
    for (const auto &perm : perms)
        EXPECT_TRUE(permutationLegal(g.edges(), perm));
}

TEST(Legality, ReversalEnablesInterchange)
{
    // Vector (1,-1): with J reversed it reads (1,1), so J can move
    // outermost; reversing I instead leaves it illegal. This is the
    // check Permute makes before reversing a loop.
    ProgramBuilder b("wave2");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {Ix(n) + 2, Ix(n) + 2});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(i, 2, n,
                 b.loop(j, 1, n,
                        b.assign(a(i, j),
                                 a(Ix(i) - 1, Ix(j) + 1) + 1.0))));
    Program p = b.finish();
    DependenceGraph g(p, collectStmts(p));
    EXPECT_TRUE(permutationLegal(edgesWithReversedLevels(g.edges(), {1}),
                                 {1, 0}));
    EXPECT_FALSE(permutationLegal(edgesWithReversedLevels(g.edges(), {0}),
                                  {1, 0}));
}

TEST(Scc, RecurrenceDetection)
{
    // S1 feeds S2 and S2 feeds S1 across iterations: one SCC, so
    // distribution finds no split.
    ProgramBuilder b("rec");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {Ix(n) + 2});
    Arr c = b.array("C", {Ix(n) + 2});
    Var i = b.loopVar("I");
    NodePtr s1 = b.assign(a(i), c(Ix(i) - 1) + 1.0);
    NodePtr s2 = b.assign(c(i), a(i) * 2.0);
    std::vector<NodePtr> body;
    body.push_back(std::move(s1));
    body.push_back(std::move(s2));
    b.add(b.loop(i, 2, n, std::move(body)));
    Program p = b.finish();
    DependenceGraph g(p, collectStmts(p));
    EXPECT_TRUE(distributionPartitions(g, *p.body[0], 0).empty());
}

TEST(Scc, IndependentStatementsSplit)
{
    ProgramBuilder b("indep");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {n});
    Arr c = b.array("C", {n});
    Var i = b.loopVar("I");
    NodePtr s1 = b.assign(a(i), Val(i));
    NodePtr s2 = b.assign(c(i), a(i) + 1.0);
    std::vector<NodePtr> body;
    body.push_back(std::move(s1));
    body.push_back(std::move(s2));
    b.add(b.loop(i, 1, n, std::move(body)));
    Program p = b.finish();
    DependenceGraph g(p, collectStmts(p));
    auto comps = distributionPartitions(g, *p.body[0], 0);
    ASSERT_EQ(comps.size(), 2u);
    // Topological order: the producer S1 comes first.
    EXPECT_EQ(comps[0], std::vector<int>{0});
    EXPECT_EQ(comps[1], std::vector<int>{1});
}

/** FNV-1a over every edge (positions, type, vector, loop independence)
 *  of the NestAnalysis graph of each depth >= 2 nest of `inputs`. */
std::string
nestGraphDigest(const std::vector<harness::BatchInput> &inputs,
                size_t &edges)
{
    uint64_t h = kFnvBasis;
    for (const harness::BatchInput &in : inputs) {
        Result<Program> loaded = in.load();
        EXPECT_TRUE(loaded.ok()) << in.name;
        if (!loaded.ok())
            continue;
        const Program &p = loaded.value();
        for (size_t k = 0; k < p.body.size(); ++k) {
            Node *n = p.body[k].get();
            if (!n->isLoop() || loopDepth(*n) < 2)
                continue;
            NestAnalysis na(p, n, ModelParams{});
            for (const DepEdge &e : na.graph().edges()) {
                h = fnv1a64(in.name + "#" + std::to_string(k) + " " +
                                std::to_string(e.srcPos) + "->" +
                                std::to_string(e.dstPos) + " " +
                                depTypeName(e.type) + " " + e.vec.str() +
                                (e.loopIndependent ? " li\n" : "\n"),
                            h);
                ++edges;
            }
        }
    }
    return hex64(h);
}

TEST(DepGolden, KernelAndCorpusNestGraphs)
{
    // Every dependence edge the model sees for the ten kernels at N=16
    // and the corpus at extent 16. A change here means analysis output
    // changed; update deliberately.
    size_t kernelEdges = 0;
    EXPECT_EQ(nestGraphDigest(harness::kernelInputs(16), kernelEdges),
              "85033950406c0186");
    EXPECT_EQ(kernelEdges, 120u);
    size_t corpusEdges = 0;
    EXPECT_EQ(nestGraphDigest(harness::corpusInputs(16), corpusEdges),
              "a973e0917bfeb79d");
    EXPECT_EQ(corpusEdges, 2048u);
}

} // namespace
} // namespace memoria
