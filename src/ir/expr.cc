#include "ir/expr.hh"

#include <algorithm>
#include <sstream>

namespace memoria {

AffineExpr
AffineExpr::makeVar(VarId v, int64_t coeff)
{
    AffineExpr e;
    e.addTerm(v, coeff);
    return e;
}

int64_t
AffineExpr::coeff(VarId v) const
{
    for (const auto &[var, c] : terms_)
        if (var == v)
            return c;
    return 0;
}

bool
AffineExpr::isSingleVar() const
{
    return constant_ == 0 && terms_.size() == 1 && terms_[0].second == 1;
}

AffineExpr
AffineExpr::operator+(const AffineExpr &o) const
{
    AffineExpr out = *this;
    out.constant_ += o.constant_;
    for (const auto &[var, c] : o.terms_)
        out.addTerm(var, c);
    return out;
}

AffineExpr
AffineExpr::operator-(const AffineExpr &o) const
{
    return *this + (-o);
}

AffineExpr
AffineExpr::operator*(int64_t s) const
{
    AffineExpr out;
    out.constant_ = constant_ * s;
    if (s != 0) {
        out.terms_ = terms_;
        for (auto &[var, c] : out.terms_)
            c *= s;
    }
    return out;
}

bool
AffineExpr::operator==(const AffineExpr &o) const
{
    return constant_ == o.constant_ && terms_ == o.terms_;
}

AffineExpr
AffineExpr::substitute(VarId v, const AffineExpr &e) const
{
    int64_t c = coeff(v);
    if (c == 0)
        return *this;
    return withoutVar(v) + e * c;
}

AffineExpr
AffineExpr::withoutVar(VarId v) const
{
    AffineExpr out;
    out.constant_ = constant_;
    for (const auto &term : terms_)
        if (term.first != v)
            out.terms_.push_back(term);
    return out;
}

int64_t
AffineExpr::eval(const std::function<int64_t(VarId)> &lookup) const
{
    int64_t acc = constant_;
    for (const auto &[var, c] : terms_)
        acc += c * lookup(var);
    return acc;
}

std::string
AffineExpr::str(const std::function<std::string(VarId)> &name) const
{
    if (terms_.empty())
        return std::to_string(constant_);
    std::ostringstream os;
    bool first = true;
    for (const auto &[var, c] : terms_) {
        if (first) {
            if (c == -1)
                os << "-";
            else if (c != 1)
                os << c << "*";
        } else {
            os << (c < 0 ? " - " : " + ");
            int64_t a = std::abs(c);
            if (a != 1)
                os << a << "*";
        }
        os << name(var);
        first = false;
    }
    if (constant_ != 0)
        os << (constant_ < 0 ? " - " : " + ") << std::abs(constant_);
    return os.str();
}

void
AffineExpr::addTerm(VarId v, int64_t coeff)
{
    if (coeff == 0)
        return;
    auto it = std::lower_bound(
        terms_.begin(), terms_.end(), v,
        [](const Term &t, VarId id) { return t.first < id; });
    if (it != terms_.end() && it->first == v) {
        it->second += coeff;
        if (it->second == 0)
            terms_.erase(it);
    } else {
        terms_.insert(it, {v, coeff});
    }
}

} // namespace memoria
