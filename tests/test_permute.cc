/** Permutation tests: memory order, triangular interchange, failure
 *  modes, reversal as an enabler. */

#include <gtest/gtest.h>

#include "dependence/legality.hh"
#include "interp/interp.hh"
#include "ir/builder.hh"
#include "ir/printer.hh"
#include "model/loopcost.hh"
#include "suite/kernels.hh"
#include "transform/permute.hh"

namespace memoria {
namespace {

ModelParams
cls4()
{
    ModelParams p;
    p.lineBytes = 32;
    return p;
}

TEST(Permute, MatmulReachesMemoryOrder)
{
    Program p = makeMatmul("IJK", 24);
    uint64_t before = runChecksum(p);

    NestAnalysis na(p, p.body[0].get(), cls4());
    PermuteResult r = permuteToMemoryOrder(na, p.body[0].get());
    EXPECT_TRUE(r.changed);
    EXPECT_TRUE(r.achievedMemoryOrder);
    EXPECT_TRUE(r.innerInMemoryOrder);
    EXPECT_FALSE(r.alreadyMemoryOrder);
    EXPECT_EQ(r.fail, PermuteFail::None);

    // Structure is now J, K, I.
    auto chain = perfectChain(p.body[0].get());
    EXPECT_EQ(p.varName(chain[0]->var), "J");
    EXPECT_EQ(p.varName(chain[1]->var), "K");
    EXPECT_EQ(p.varName(chain[2]->var), "I");

    EXPECT_EQ(runChecksum(p), before);
}

TEST(Permute, AlreadyInMemoryOrder)
{
    Program p = makeMatmul("JKI", 16);
    NestAnalysis na(p, p.body[0].get(), cls4());
    PermuteResult r = permuteToMemoryOrder(na, p.body[0].get());
    EXPECT_TRUE(r.alreadyMemoryOrder);
    EXPECT_TRUE(r.achievedMemoryOrder);
    EXPECT_FALSE(r.changed);
}

TEST(Permute, EveryMatmulOrderNormalizes)
{
    for (const char *order : {"IJK", "IKJ", "JIK", "KIJ", "KJI"}) {
        Program p = makeMatmul(order, 16);
        uint64_t before = runChecksum(p);
        NestAnalysis na(p, p.body[0].get(), cls4());
        PermuteResult r = permuteToMemoryOrder(na, p.body[0].get());
        EXPECT_TRUE(r.achievedMemoryOrder) << order;
        auto chain = perfectChain(p.body[0].get());
        EXPECT_EQ(p.varName(chain[2]->var), "I") << order;
        EXPECT_EQ(runChecksum(p), before) << order;
    }
}

TEST(Permute, WavefrontDependenceBlocks)
{
    // A(I,J) = A(I-1,J+1) + A(I-1,J-1): distance vectors (1,-1) and
    // (1,1). Interchange is illegal and reversal cannot enable it
    // (flipping J fixes one vector but breaks the other). Memory order
    // wants the I loop (first subscript) innermost.
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

    NestAnalysis na(p, p.body[0].get(), cls4());
    PermuteResult r = permuteToMemoryOrder(na, p.body[0].get());
    EXPECT_FALSE(r.achievedMemoryOrder);
    EXPECT_FALSE(r.changed);
    EXPECT_EQ(r.fail, PermuteFail::Dependences);
}

TEST(Permute, ReversalEnablesInterchange)
{
    // A(I,J) = A(I+1,J-1) + 1: anti dependence (1,-1). Plain
    // interchange is illegal, but reversing J turns the vector into
    // (1,1) and the interchange becomes legal.
    ProgramBuilder b("rev");
    Var n = b.param("N", 16);
    Arr a = b.array("A", {Ix(n) + 2, Ix(n) + 2});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(i, 1, n,
                 b.loop(j, 2, n,
                        b.assign(a(i, j),
                                 a(Ix(i) + 1, Ix(j) - 1) + 1.0))));
    Program p = b.finish();
    uint64_t before = runChecksum(p);

    NestAnalysis na(p, p.body[0].get(), cls4());
    EXPECT_FALSE(permutationLegal(na.graph().edges(), {1, 0}));
    PermuteResult r = permuteToMemoryOrder(na, p.body[0].get());
    EXPECT_TRUE(r.achievedMemoryOrder);
    EXPECT_TRUE(r.usedReversal);
    EXPECT_EQ(runChecksum(p), before);
    auto chain = perfectChain(p.body[0].get());
    EXPECT_EQ(p.varName(chain[1]->var), "I");
}

TEST(Permute, TriangularUpperExchange)
{
    // DO I=1,N / DO J=1,I (lower-left triangle, J <= I): exchange to
    // DO J=1,N / DO I=J,N.
    ProgramBuilder b("tri");
    Var n = b.param("N", 12);
    Arr a = b.array("A", {n, n});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(i, 1, n,
                 b.loop(j, 1, i, b.assign(a(i, j), Val(i) + Val(j)))));
    Program p = b.finish();
    uint64_t before = runChecksum(p);

    Node *outer = p.body[0].get();
    Node *inner = outer->body[0].get();
    ASSERT_TRUE(applyPermutation(outer, {1, 0}));
    EXPECT_EQ(p.varName(outer->var), "J");
    EXPECT_EQ(p.varName(inner->var), "I");
    // New bounds: J in [1,N], I in [J,N].
    EXPECT_EQ(outer->lb.constant(), 1);
    EXPECT_EQ(inner->lb.coeff(outer->var), 1);
    EXPECT_EQ(runChecksum(p), before);
}

TEST(Permute, TriangularLowerExchange)
{
    // DO I=1,N / DO J=I,N (J >= I): exchange to DO J=1,N / DO I=1,J.
    ProgramBuilder b("tri2");
    Var n = b.param("N", 12);
    Arr a = b.array("A", {n, n});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(i, 1, n,
                 b.loop(j, Ix(i), n,
                        b.assign(a(i, j), Val(i) * 2.0))));
    Program p = b.finish();
    uint64_t before = runChecksum(p);

    ASSERT_TRUE(applyPermutation(p.body[0].get(), {1, 0}));
    EXPECT_EQ(runChecksum(p), before);
}

TEST(Permute, ComplexBoundsFail)
{
    // DO I / DO J=1,2*I: coefficient 2 on the outer variable is beyond
    // the triangular exchange rules -> "bounds too complex".
    ProgramBuilder b("cplx");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {Ix(n) * 2, n});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(i, 1, n,
                 b.loop(j, 1, Ix(i) * 2,
                        b.assign(a(j, i), Val(j)))));
    Program p = b.finish();

    Node *outer = p.body[0].get();
    EXPECT_FALSE(applyPermutation(outer, {1, 0}));
    EXPECT_EQ(p.varName(outer->var), "I") << "nest left untouched";

    NestAnalysis na(p, p.body[0].get(), cls4());
    PermuteResult r = permuteToMemoryOrder(na, p.body[0].get());
    // Memory order wants J innermost already? A(J,I): J consecutive.
    // The nest is I,J with J innermost: this is already memory order,
    // so nothing to do. Force the interesting case by checking the
    // exchange API only.
    (void)r;
}

TEST(Permute, BoundsTooComplexReported)
{
    // A(J,I) with loops I outer, J=1..2*I inner but *bad* order for
    // locality: store A(I,J) so memory order wants I innermost; the
    // dependence-free exchange is blocked only by the bounds.
    ProgramBuilder b("cplx2");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {n, Ix(n) * 2});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(i, 1, n,
                 b.loop(j, 1, Ix(i) * 2,
                        b.assign(a(i, j), Val(j)))));
    Program p = b.finish();

    NestAnalysis na(p, p.body[0].get(), cls4());
    PermuteResult r = permuteToMemoryOrder(na, p.body[0].get());
    EXPECT_FALSE(r.achievedMemoryOrder);
    EXPECT_EQ(r.fail, PermuteFail::Bounds);
}

TEST(Permute, CholeskySubNestTriangularInterchange)
{
    // The S3 sub-nest of Cholesky: DO I=K+1,N / DO J=K+1,I under an
    // outer K loop. After interchange: DO J=K+1,N / DO I=J,N.
    ProgramBuilder b("chol3");
    Var n = b.param("N", 12);
    Arr a = b.array("A", {n, n});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    Var k = b.loopVar("K");
    b.add(b.loop(k, 1, Ix(n) - 2,
                 b.loop(i, Ix(k) + 1, n,
                        b.loop(j, Ix(k) + 1, i,
                               b.assign(a(i, j),
                                        a(i, j) - a(i, k) * a(j, k))))));
    Program p = b.finish();
    uint64_t before = runChecksum(p);

    Node *kLoop = p.body[0].get();
    Node *outer = kLoop->body[0].get();
    Node *inner = outer->body[0].get();
    ASSERT_TRUE(applyPermutation(outer, {1, 0}));
    EXPECT_EQ(p.varName(outer->var), "J");
    // J: K+1..N, I: J..N.
    EXPECT_EQ(outer->lb.coeff(kLoop->var), 1);
    EXPECT_EQ(outer->ub.coeff(kLoop->var), 0);
    EXPECT_TRUE(inner->lb.isSingleVar());
    EXPECT_EQ(runChecksum(p), before);
}

TEST(Permute, DeeperLoopsBeyondChainKeepWorking)
{
    // Imperfect below the chain: permuting the 2-deep chain must leave
    // the inner structure intact.
    Program p = makeGmtry(10);
    uint64_t before = runChecksum(p);
    Node *kLoop = p.body[0].get();
    Node *updateNest = kLoop->body[1].get();  // DO I / DO J
    NestAnalysis na(p, updateNest, cls4(), {kLoop});
    PermuteResult r = permuteToMemoryOrder(na, updateNest);
    EXPECT_TRUE(r.changed);
    EXPECT_EQ(runChecksum(p), before);
}

} // namespace
} // namespace memoria
