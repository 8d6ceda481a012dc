/**
 * @file
 * Cost polynomials.
 *
 * The locality cost model of Carr, McKinley & Tseng expresses loop costs
 * symbolically in one abstract problem-size symbol `n` (e.g. the matrix
 * multiply LoopCost table contains entries such as 2n^3 + n^2 and
 * (3/4)n^3 + n^2). `Poly` is a dense univariate polynomial over double
 * coefficients supporting the arithmetic the model needs plus the
 * "compare dominating terms" ordering the paper prescribes for symbolic
 * loop bounds (Section 4.1).
 */

#ifndef MEMORIA_SUPPORT_POLY_HH
#define MEMORIA_SUPPORT_POLY_HH

#include <array>
#include <string>
#include <vector>

namespace memoria {

/**
 * Univariate polynomial in the abstract size symbol `n`.
 *
 * Coefficients are doubles because the cost model produces fractional
 * terms (e.g. trip/(cls/stride) = n/4). The zero polynomial has no
 * coefficients and degree -1.
 *
 * Up to kInlineCoeffs coefficients live inside the object, so the cost
 * model's arithmetic does not allocate; a polynomial of higher degree
 * (a LoopCost of a nest deeper than the kernels and the corpus reach)
 * moves its coefficients to the heap and counts the move in
 * `support.poly.heap_spills`.
 */
class Poly
{
  public:
    /** The zero polynomial. */
    Poly() = default;

    /** A constant polynomial. */
    Poly(double c);

    /** Build from coefficients, index = power: {c0, c1, c2, ...}. */
    static Poly fromCoeffs(std::vector<double> coeffs);

    /** The monomial c * n^power. */
    static Poly term(double c, int power);

    /** The symbol n itself. */
    static Poly sym();

    /** Degree of the polynomial; -1 for the zero polynomial. */
    int degree() const;

    /** Coefficient of n^power (0 beyond the degree). */
    double coeff(int power) const;

    /** True when every coefficient is zero. */
    bool isZero() const;

    /** True when the polynomial is a constant (degree <= 0). */
    bool isConstant() const;

    /** Evaluate at a concrete problem size. */
    double eval(double n) const;

    Poly operator+(const Poly &o) const;
    Poly operator-(const Poly &o) const;
    Poly operator*(const Poly &o) const;
    Poly operator*(double s) const;
    Poly operator/(double s) const;
    Poly &operator+=(const Poly &o);
    Poly &operator*=(const Poly &o);
    Poly operator-() const;

    /**
     * Dominating-term ordering.
     *
     * Compares the highest-degree coefficients first and walks down on
     * ties; returns negative / zero / positive like strcmp. This is the
     * comparison the paper uses to rank LoopCosts when loop bounds are
     * symbolic.
     */
    int compare(const Poly &o) const;

    bool operator==(const Poly &o) const;
    bool operator<(const Poly &o) const { return compare(o) < 0; }
    bool operator<=(const Poly &o) const { return compare(o) <= 0; }
    bool operator>(const Poly &o) const { return compare(o) > 0; }
    bool operator>=(const Poly &o) const { return compare(o) >= 0; }

    /** Render like "2n^3 + 0.25n^2 + 1". */
    std::string str() const;

    /** Coefficients held without a heap allocation: degree 11. The
     *  kernels' and the corpus's costs stay below degree 12. */
    static constexpr int kInlineCoeffs = 12;

  private:
    /** Give a zero polynomial `size` zero coefficients, inline or on
     *  the heap. */
    void resize(int size);
    void trim();

    int
    size() const
    {
        return heap_.empty() ? inlineSize_ : static_cast<int>(heap_.size());
    }

    const double *
    data() const
    {
        return heap_.empty() ? inline_.data() : heap_.data();
    }

    double *
    data()
    {
        return heap_.empty() ? inline_.data() : heap_.data();
    }

    /** data()[k] is the coefficient of n^k. The coefficients live in
     *  inline_ while heap_ is empty, and all of them in heap_ once
     *  there are more than kInlineCoeffs. Moving a polynomial out of
     *  the heap form leaves heap_ empty, so the source reads as zero. */
    int inlineSize_ = 0;
    std::array<double, kInlineCoeffs> inline_{};
    std::vector<double> heap_;
};

} // namespace memoria

#endif // MEMORIA_SUPPORT_POLY_HH
