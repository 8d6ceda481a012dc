/**
 * @file
 * Affine integer expressions over loop variables and symbolic parameters.
 *
 * Subscripts and loop bounds in the paper's domain (Fortran 77 scientific
 * codes) are affine: sum of integer-coefficient variables plus an integer
 * constant. AffineExpr is the shared currency between the IR, the
 * dependence analyzer and the locality cost model.
 */

#ifndef MEMORIA_IR_EXPR_HH
#define MEMORIA_IR_EXPR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace memoria {

/** Index of a variable (loop index or symbolic parameter) in a Program. */
using VarId = int32_t;

/** Sentinel for "no variable". */
constexpr VarId kNoVar = -1;

/**
 * Immutable affine expression: sum(coeff_i * var_i) + constant.
 *
 * Terms are kept sorted by VarId with zero coefficients dropped, so
 * structural equality is value equality.
 */
class AffineExpr
{
  public:
    /** A (varId, coefficient) pair; coefficient is never zero. */
    using Term = std::pair<VarId, int64_t>;

    /** The zero expression. */
    AffineExpr() = default;

    /** A constant expression. */
    AffineExpr(int64_t c) : constant_(c) {}

    /** The expression coeff * v. */
    static AffineExpr makeVar(VarId v, int64_t coeff = 1);

    /** Coefficient of variable v (0 when absent). */
    int64_t coeff(VarId v) const;

    /** The constant term. */
    int64_t constant() const { return constant_; }

    /** True when no variables appear. */
    bool isConstant() const { return terms_.empty(); }

    /** True when the expression is exactly one variable (coeff 1). */
    bool isSingleVar() const;

    /** Number of variables with non-zero coefficients. */
    size_t numVars() const { return terms_.size(); }

    /** All terms, sorted by VarId. */
    const std::vector<Term> &terms() const { return terms_; }

    /** True when variable v appears with non-zero coefficient. */
    bool uses(VarId v) const { return coeff(v) != 0; }

    AffineExpr operator+(const AffineExpr &o) const;
    AffineExpr operator-(const AffineExpr &o) const;
    AffineExpr operator*(int64_t s) const;
    AffineExpr operator-() const { return *this * -1; }
    AffineExpr operator+(int64_t c) const { return *this + AffineExpr(c); }
    AffineExpr operator-(int64_t c) const { return *this + AffineExpr(-c); }

    bool operator==(const AffineExpr &o) const;

    /** Replace variable v by expression e. */
    AffineExpr substitute(VarId v, const AffineExpr &e) const;

    /** Drop the term for variable v (as if its coefficient were zero). */
    AffineExpr withoutVar(VarId v) const;

    /** Evaluate with a variable environment. */
    int64_t eval(const std::function<int64_t(VarId)> &lookup) const;

    /** Render with a variable-name resolver, e.g. "I + 2*K - 1". */
    std::string str(const std::function<std::string(VarId)> &name) const;

  private:
    void addTerm(VarId v, int64_t coeff);

    std::vector<Term> terms_;
    int64_t constant_ = 0;
};

} // namespace memoria

#endif // MEMORIA_IR_EXPR_HH
