/** Unit tests for the IR: affine expressions, builder, printer, walk. */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "ir/printer.hh"
#include "ir/walk.hh"
#include "suite/kernels.hh"

namespace memoria {
namespace {

TEST(AffineExpr, BasicsAndArithmetic)
{
    AffineExpr c(7);
    EXPECT_TRUE(c.isConstant());
    EXPECT_EQ(c.constant(), 7);

    AffineExpr x = AffineExpr::makeVar(0);
    AffineExpr y = AffineExpr::makeVar(1, 2);
    AffineExpr e = x + y + 3;  // x + 2y + 3
    EXPECT_EQ(e.coeff(0), 1);
    EXPECT_EQ(e.coeff(1), 2);
    EXPECT_EQ(e.coeff(5), 0);
    EXPECT_EQ(e.constant(), 3);
    EXPECT_FALSE(e.isConstant());

    AffineExpr f = e - x;  // 2y + 3
    EXPECT_EQ(f.coeff(0), 0);
    EXPECT_EQ(f.numVars(), 1u);

    AffineExpr g = e * -2;
    EXPECT_EQ(g.coeff(1), -4);
    EXPECT_EQ(g.constant(), -6);
}

TEST(AffineExpr, SubstituteAndEval)
{
    AffineExpr x = AffineExpr::makeVar(0);
    AffineExpr y = AffineExpr::makeVar(1);
    AffineExpr e = x * 2 + y + 1;

    // x := y + 3  =>  2y + 6 + y + 1 = 3y + 7
    AffineExpr s = e.substitute(0, y + 3);
    EXPECT_EQ(s.coeff(0), 0);
    EXPECT_EQ(s.coeff(1), 3);
    EXPECT_EQ(s.constant(), 7);

    int64_t v = e.eval([](VarId id) { return id == 0 ? 10 : 4; });
    EXPECT_EQ(v, 25);
}

TEST(AffineExpr, SingleVarDetection)
{
    AffineExpr x = AffineExpr::makeVar(2);
    EXPECT_TRUE(x.isSingleVar());
    EXPECT_FALSE((x * 2).isSingleVar());
    EXPECT_FALSE((x + 1).isSingleVar());
}

TEST(Builder, MatmulStructure)
{
    Program p = makeMatmul("JKI", 64);
    ASSERT_EQ(p.body.size(), 1u);
    Node *j = p.body[0].get();
    ASSERT_TRUE(j->isLoop());
    EXPECT_EQ(p.varName(j->var), "J");

    auto chain = perfectChain(j);
    ASSERT_EQ(chain.size(), 3u);
    EXPECT_EQ(p.varName(chain[1]->var), "K");
    EXPECT_EQ(p.varName(chain[2]->var), "I");

    auto stmts = collectStmts(*&p);
    ASSERT_EQ(stmts.size(), 1u);
    EXPECT_EQ(stmts[0].loops.size(), 3u);

    auto refs = collectRefs(stmts[0].node->stmt);
    // write C + reads C, A, B.
    ASSERT_EQ(refs.size(), 4u);
    EXPECT_TRUE(refs[0].isWrite);
}

TEST(Builder, ParamAndArrayDecl)
{
    ProgramBuilder b("t");
    Var n = b.param("N", 40);
    Arr a = b.array("A", {n, Ix(n) + 1});
    Program p = b.finish();
    EXPECT_EQ(p.vars[n.id].paramValue, 40);
    EXPECT_EQ(p.arrays[a.id].extents.size(), 2u);
    EXPECT_EQ(p.arrays[a.id].extents[1].constant(), 1);
}

TEST(Printer, MatmulRendering)
{
    Program p = makeMatmul("IJK", 8);
    std::string s = printProgram(p);
    EXPECT_NE(s.find("DO I = 1, N"), std::string::npos);
    EXPECT_NE(s.find("C(I,J) = (C(I,J) + A(I,K)*B(K,J))"),
              std::string::npos);
    EXPECT_NE(s.find("PARAMETER N = 8"), std::string::npos);
}

TEST(Printer, TriangularBounds)
{
    Program p = makeCholeskyKIJ(8);
    std::string s = printProgram(p);
    EXPECT_NE(s.find("DO I = K + 1, N"), std::string::npos);
    EXPECT_NE(s.find("DO J = K + 1, I"), std::string::npos);
    EXPECT_NE(s.find("SQRT"), std::string::npos);
}

TEST(Walk, DepthAndCounts)
{
    Program p = makeCholeskyKIJ(8);
    Node *k = p.body[0].get();
    EXPECT_EQ(loopDepth(*k), 3);
    EXPECT_EQ(countStmts(*k), 3);
    EXPECT_EQ(collectLoops(k).size(), 3u);
    // The K loop's perfect chain stops at K (its body has 2 items).
    EXPECT_EQ(perfectChain(k).size(), 1u);
}

TEST(Walk, CloneIsStructurallyEqual)
{
    Program p = makeAdiScalarized(16);
    Program q = p.clone();
    EXPECT_TRUE(structurallyEqual(p, q));

    // Mutating the clone breaks equality.
    q.body[0]->ub = q.body[0]->ub + 1;
    EXPECT_FALSE(structurallyEqual(p, q));
}

TEST(Walk, SubstituteVarRenamesEverywhere)
{
    Program p = makeMatmul("IJK", 8);
    Node *i = p.body[0].get();
    Node *j = i->body[0].get();
    // Rename J := J' where J' is a fresh variable id.
    VarId fresh = static_cast<VarId>(p.vars.size());
    p.vars.push_back({"J2", VarKind::LoopVar, 0, Poly()});
    substituteVar(*j, j->var, AffineExpr::makeVar(fresh));
    j->var = fresh;
    std::string s = printProgram(p);
    EXPECT_NE(s.find("C(I,J2)"), std::string::npos);
    EXPECT_EQ(s.find("C(I,J)"), std::string::npos);
}

TEST(Walk, UsesVar)
{
    Program p = makeMatmul("IJK", 8);
    Node *i = p.body[0].get();
    EXPECT_TRUE(usesVar(*i, i->var));
    VarId fresh = static_cast<VarId>(p.vars.size());
    p.vars.push_back({"Z", VarKind::LoopVar, 0, Poly()});
    EXPECT_FALSE(usesVar(*i, fresh));
}

TEST(Walk, OpaqueSubscriptRefsCollected)
{
    ProgramBuilder b("idx");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {n});
    Arr ind = b.array("IND", {n});
    Var i = b.loopVar("I");
    // A([IND(I)]) = A([IND(I)]) + 1 : opaque subscript contains a load.
    Ref lhs = a.at({opaqueSub(Val(ind(i)))});
    b.add(b.loop(i, 1, n, b.assign(lhs, Val(lhs) + 1.0)));
    Program p = b.finish();

    auto stmts = collectStmts(p);
    auto refs = collectRefs(stmts[0].node->stmt);
    // write A + its inner IND load + read A + its inner IND load.
    EXPECT_EQ(refs.size(), 4u);
    EXPECT_FALSE(stmts[0].node->stmt.write.isAffine());
}

} // namespace
} // namespace memoria
