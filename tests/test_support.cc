/** Unit tests for the support module: Poly, TextTable, Rng. */

#include <gtest/gtest.h>

#include "support/poly.hh"
#include "support/rng.hh"
#include "support/table.hh"

namespace memoria {
namespace {

TEST(Poly, ConstantBasics)
{
    Poly zero;
    EXPECT_TRUE(zero.isZero());
    EXPECT_EQ(zero.degree(), -1);
    EXPECT_DOUBLE_EQ(zero.eval(100.0), 0.0);

    Poly five(5.0);
    EXPECT_TRUE(five.isConstant());
    EXPECT_EQ(five.degree(), 0);
    EXPECT_DOUBLE_EQ(five.eval(3.0), 5.0);
}

TEST(Poly, ArithmeticAndEval)
{
    Poly n = Poly::sym();
    Poly p = n * n * 2.0 + n + Poly(1.0);  // 2n^2 + n + 1
    EXPECT_EQ(p.degree(), 2);
    EXPECT_DOUBLE_EQ(p.eval(10.0), 211.0);

    Poly q = p - Poly::term(2.0, 2);  // n + 1
    EXPECT_EQ(q.degree(), 1);
    EXPECT_DOUBLE_EQ(q.eval(4.0), 5.0);

    Poly prod = q * q;  // n^2 + 2n + 1
    EXPECT_DOUBLE_EQ(prod.eval(3.0), 16.0);

    Poly half = n / 2.0;
    EXPECT_DOUBLE_EQ(half.eval(8.0), 4.0);
}

TEST(Poly, DominatingTermComparison)
{
    Poly n = Poly::sym();
    Poly cube = n * n * n;                   // n^3
    Poly bigSquare = n * n * 1000.0;         // 1000 n^2
    EXPECT_TRUE(bigSquare < cube);
    EXPECT_TRUE(cube > bigSquare);

    Poly a = n * n * 2.0 + n;        // 2n^2 + n
    Poly b = n * n * 2.0 + n * 3.0;  // 2n^2 + 3n
    EXPECT_TRUE(a < b);
    EXPECT_TRUE(a <= b);
    EXPECT_FALSE(a == b);
    EXPECT_TRUE(a == a);
}

TEST(Poly, CancellationTrims)
{
    Poly n = Poly::sym();
    Poly p = n * n - n * n;
    EXPECT_TRUE(p.isZero());
    EXPECT_EQ((n - n).degree(), -1);
}

TEST(Poly, Render)
{
    Poly n = Poly::sym();
    EXPECT_EQ((n * n * 2.0 + Poly(1.0)).str(), "2n^2 + 1");
    EXPECT_EQ((n * n * n).str(), "n^3");
    EXPECT_EQ(Poly().str(), "0");
    EXPECT_EQ((n / 4.0).str(), "0.25n");
}

TEST(Poly, FromCoeffs)
{
    Poly p = Poly::fromCoeffs({1.0, 0.0, 3.0});
    EXPECT_EQ(p.degree(), 2);
    EXPECT_DOUBLE_EQ(p.coeff(2), 3.0);
    EXPECT_DOUBLE_EQ(p.coeff(1), 0.0);
    EXPECT_DOUBLE_EQ(p.coeff(0), 1.0);
    EXPECT_DOUBLE_EQ(p.coeff(7), 0.0);
}

TEST(Rng, DeterministicAndBounded)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Rng c(7);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = c.range(3, 9);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool anyDiff = false;
    for (int i = 0; i < 10; ++i)
        anyDiff |= (a.next() != b.next());
    EXPECT_TRUE(anyDiff);
}

TEST(TextTable, RendersAlignedRows)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRule();
    t.addRow({"b", "22"});
    std::string s = t.str();
    EXPECT_NE(s.find("| name  | value |"), std::string::npos);
    EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
    EXPECT_NE(s.find("| b     | 22    |"), std::string::npos);
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(AsciiBar, Clamps)
{
    EXPECT_EQ(asciiBar(0.5, 10), "#####     ");
    EXPECT_EQ(asciiBar(2.0, 4), "####");
    EXPECT_EQ(asciiBar(-1.0, 4), "    ");
}

} // namespace
} // namespace memoria
