/** Unit tests for the support module: Poly, TextTable, Rng. */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/poly.hh"
#include "support/rng.hh"
#include "support/stats.hh"
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

/** Plain dense coefficients (index = power), the reference the
 *  inline-capacity tests compare Poly against. */
using Dense = std::vector<double>;

Dense
denseAdd(const Dense &a, const Dense &b)
{
    Dense out(std::max(a.size(), b.size()), 0.0);
    for (size_t i = 0; i < a.size(); ++i)
        out[i] += a[i];
    for (size_t i = 0; i < b.size(); ++i)
        out[i] += b[i];
    return out;
}

Dense
denseMul(const Dense &a, const Dense &b)
{
    if (a.empty() || b.empty())
        return {};
    Dense out(a.size() + b.size() - 1, 0.0);
    for (size_t i = 0; i < a.size(); ++i)
        for (size_t j = 0; j < b.size(); ++j)
            out[i + j] += a[i] * b[j];
    return out;
}

Dense
denseTerm(double c, int power)
{
    Dense out(power + 1, 0.0);
    out[power] = c;
    return out;
}

void
expectEqualsDense(const Poly &p, Dense ref)
{
    while (!ref.empty() && std::abs(ref.back()) <= 1e-12)
        ref.pop_back();
    ASSERT_EQ(p.degree(), static_cast<int>(ref.size()) - 1);
    for (size_t k = 0; k < ref.size(); ++k)
        EXPECT_EQ(p.coeff(static_cast<int>(k)), ref[k]) << "n^" << k;
}

uint64_t
heapSpills()
{
    return obs::counter("support.poly.heap_spills").value();
}

TEST(PolyInline, SumsAndProductsCrossTheCapacity)
{
    const int cap = Poly::kInlineCoeffs;
    // (n + 2)^k for k up to twice the capacity, with a sum alongside.
    Poly lin = Poly::sym() + Poly(2.0);
    Dense linD = {2.0, 1.0};
    Poly p(1.0), sum;
    Dense pD = {1.0}, sumD;
    const uint64_t before = heapSpills();
    for (int k = 1; k <= 2 * cap; ++k) {
        p = p * lin;
        pD = denseMul(pD, linD);
        sum += p * 0.5;
        sumD = denseAdd(sumD, denseMul(pD, {0.5}));
        expectEqualsDense(p, pD);
        expectEqualsDense(sum, sumD);
        EXPECT_EQ(p.eval(1.0), std::pow(3.0, k));
    }
    EXPECT_EQ(p.degree(), 2 * cap);
    EXPECT_GT(heapSpills(), before);

    // Arithmetic that stays within the capacity never spills.
    const uint64_t mid = heapSpills();
    Poly top = Poly::term(3.0, cap - 2) * Poly::sym() + Poly(1.0);
    expectEqualsDense(top, denseAdd(denseTerm(3.0, cap - 1), {1.0}));
    EXPECT_EQ(heapSpills(), mid);
}

TEST(PolyInline, TrimsBackUnderTheCapacity)
{
    const int cap = Poly::kInlineCoeffs;
    Poly high = Poly::term(5.0, cap + 4) + Poly::term(-1.0, cap + 1);
    Poly low = Poly::term(2.0, 3) + Poly(7.0);
    Poly mixed = high + low;
    EXPECT_EQ(mixed.degree(), cap + 4);

    // The heap terms cancel: the result is inline again and keeps
    // working as an ordinary polynomial.
    Poly back = mixed - high;
    expectEqualsDense(back, {7.0, 0.0, 0.0, 2.0});
    EXPECT_TRUE(back == low);
    Dense lowD = {7.0, 0.0, 0.0, 2.0};
    expectEqualsDense(back * back, denseMul(lowD, lowD));
    expectEqualsDense(back * Poly::term(1.0, cap - 4),
                      denseMul(lowD, denseTerm(1.0, cap - 4)));

    // A heap product scaled to zero trims to the zero polynomial.
    Poly zero = mixed * 0.0;
    EXPECT_TRUE(zero.isZero());
    EXPECT_EQ(zero.degree(), -1);
    EXPECT_EQ(zero.str(), "0");
}

TEST(PolyInline, CopyAndAssignBetweenForms)
{
    const int cap = Poly::kInlineCoeffs;
    Poly heap = Poly::term(1.5, 2 * cap) + Poly::sym();
    Poly inl = Poly::term(2.0, 2) + Poly(1.0);
    const std::string heapStr = heap.str();
    const std::string inlStr = inl.str();
    EXPECT_EQ(heapStr, "1.5n^" + std::to_string(2 * cap) + " + n");

    Poly a = heap;  // heap -> new
    EXPECT_EQ(a.str(), heapStr);
    a = inl;  // heap -> inline
    EXPECT_EQ(a.str(), inlStr);
    EXPECT_EQ(a.degree(), 2);
    a = heap;  // inline -> heap
    EXPECT_EQ(a.str(), heapStr);
    a += Poly::term(-1.5, 2 * cap);  // heap -> inline in place
    EXPECT_EQ(a.str(), "n");

    Poly b = inl;
    b *= heap;  // inline * heap -> heap
    expectEqualsDense(b, denseMul({1.0, 0.0, 2.0},
                                  denseAdd(denseTerm(1.5, 2 * cap),
                                           {0.0, 1.0})));

    // Moves leave the source a valid polynomial in either form.
    Poly movedHeap = heap;
    Poly c = std::move(movedHeap);
    EXPECT_EQ(c.str(), heapStr);
    movedHeap = inl;
    EXPECT_EQ(movedHeap.str(), inlStr);
    Poly d;
    d = std::move(c);
    EXPECT_EQ(d.str(), heapStr);
    c = Poly(4.0);
    EXPECT_EQ(c.str(), "4");

    // The originals are untouched by all of the above.
    EXPECT_EQ(heap.str(), heapStr);
    EXPECT_EQ(inl.str(), inlStr);
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
