#include "model/checked.hh"

#include <atomic>
#include <cmath>
#include <limits>

#include "support/logging.hh"

namespace memoria {

namespace {

/** Largest finite stand-in for an overflowed cost coefficient. */
constexpr double kHuge = 1e300;

void
warnOnce(const char *what)
{
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
        warn(std::string("cost-model arithmetic overflow (") + what +
             "); saturating — reported costs are lower bounds");
}

int64_t
saturate(bool negative)
{
    return negative ? std::numeric_limits<int64_t>::min()
                    : std::numeric_limits<int64_t>::max();
}

} // namespace

int64_t
checkedMul(int64_t a, int64_t b)
{
    int64_t r = 0;
    if (__builtin_mul_overflow(a, b, &r)) {
        warnOnce("multiply");
        return saturate((a < 0) != (b < 0));
    }
    return r;
}

int64_t
checkedAbs(int64_t a)
{
    if (a == std::numeric_limits<int64_t>::min()) {
        warnOnce("abs");
        return std::numeric_limits<int64_t>::max();
    }
    return a < 0 ? -a : a;
}

Poly
saturatePoly(Poly p)
{
    bool dirty = false;
    for (int k = 0; k <= p.degree(); ++k)
        dirty = dirty || !std::isfinite(p.coeff(k));
    if (!dirty)
        return p;
    warnOnce("polynomial coefficient");
    std::vector<double> coeffs;
    for (int k = 0; k <= p.degree(); ++k) {
        double c = p.coeff(k);
        if (std::isnan(c))
            c = kHuge;
        else if (!std::isfinite(c))
            c = c > 0 ? kHuge : -kHuge;
        coeffs.push_back(c);
    }
    return Poly::fromCoeffs(std::move(coeffs));
}

double
checkedEval(const Poly &p, double n)
{
    double v = p.eval(n);
    if (std::isfinite(v))
        return v;
    warnOnce("polynomial evaluation");
    if (std::isnan(v))
        return kHuge;
    return v > 0 ? kHuge : -kHuge;
}

} // namespace memoria
