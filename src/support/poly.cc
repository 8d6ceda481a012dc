#include "support/poly.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/logging.hh"
#include "support/stats.hh"

namespace memoria {

namespace {

/** Coefficients closer to zero than this are treated as zero. */
constexpr double kEps = 1e-12;

obs::Counter &
heapSpills()
{
    static obs::Counter &c = obs::counter("support.poly.heap_spills");
    return c;
}

/** Registered at startup, so a run without a spill reports 0. */
[[maybe_unused]] const bool kHeapSpillsRegistered = (heapSpills(), true);

} // namespace

Poly::Poly(double c)
{
    if (std::abs(c) > kEps) {
        inline_[0] = c;
        inlineSize_ = 1;
    }
}

Poly
Poly::fromCoeffs(std::vector<double> coeffs)
{
    Poly p;
    p.resize(static_cast<int>(coeffs.size()));
    std::copy(coeffs.begin(), coeffs.end(), p.data());
    p.trim();
    return p;
}

Poly
Poly::term(double c, int power)
{
    MEMORIA_ASSERT(power >= 0, "monomial power must be non-negative");
    Poly p;
    if (std::abs(c) > kEps) {
        p.resize(power + 1);
        p.data()[power] = c;
    }
    return p;
}

Poly
Poly::sym()
{
    return term(1.0, 1);
}

int
Poly::degree() const
{
    return size() - 1;
}

double
Poly::coeff(int power) const
{
    if (power < 0 || power >= size())
        return 0.0;
    return data()[power];
}

bool
Poly::isZero() const
{
    return size() == 0;
}

bool
Poly::isConstant() const
{
    return degree() <= 0;
}

double
Poly::eval(double n) const
{
    const double *c = data();
    double acc = 0.0;
    for (int k = size() - 1; k >= 0; --k)
        acc = acc * n + c[k];
    return acc;
}

Poly
Poly::operator+(const Poly &o) const
{
    const int na = size(), nb = o.size();
    Poly r;
    r.resize(std::max(na, nb));
    double *out = r.data();
    const double *a = data();
    const double *b = o.data();
    for (int i = 0; i < na; ++i)
        out[i] += a[i];
    for (int i = 0; i < nb; ++i)
        out[i] += b[i];
    r.trim();
    return r;
}

Poly
Poly::operator-(const Poly &o) const
{
    return *this + (-o);
}

Poly
Poly::operator*(const Poly &o) const
{
    if (isZero() || o.isZero())
        return Poly();
    const int na = size(), nb = o.size();
    Poly r;
    r.resize(na + nb - 1);
    double *out = r.data();
    const double *a = data();
    const double *b = o.data();
    for (int i = 0; i < na; ++i)
        for (int j = 0; j < nb; ++j)
            out[i + j] += a[i] * b[j];
    r.trim();
    return r;
}

Poly
Poly::operator*(double s) const
{
    Poly r = *this;
    const int nr = r.size();
    double *out = r.data();
    for (int i = 0; i < nr; ++i)
        out[i] *= s;
    r.trim();
    return r;
}

Poly
Poly::operator/(double s) const
{
    MEMORIA_ASSERT(std::abs(s) > kEps, "division by zero");
    return *this * (1.0 / s);
}

Poly &
Poly::operator+=(const Poly &o)
{
    *this = *this + o;
    return *this;
}

Poly &
Poly::operator*=(const Poly &o)
{
    *this = *this * o;
    return *this;
}

Poly
Poly::operator-() const
{
    return *this * -1.0;
}

int
Poly::compare(const Poly &o) const
{
    int hi = std::max(degree(), o.degree());
    for (int k = hi; k >= 0; --k) {
        double d = coeff(k) - o.coeff(k);
        if (d > kEps)
            return 1;
        if (d < -kEps)
            return -1;
    }
    return 0;
}

bool
Poly::operator==(const Poly &o) const
{
    return compare(o) == 0;
}

std::string
Poly::str() const
{
    if (isZero())
        return "0";
    std::ostringstream os;
    bool first = true;
    for (int k = degree(); k >= 0; --k) {
        double c = data()[k];
        if (std::abs(c) <= kEps)
            continue;
        if (!first)
            os << (c < 0 ? " - " : " + ");
        else if (c < 0)
            os << "-";
        double a = std::abs(c);
        bool unit = std::abs(a - 1.0) <= kEps;
        if (!unit || k == 0)
            os << a;
        if (k >= 1) {
            os << "n";
            if (k > 1)
                os << "^" << k;
        }
        first = false;
    }
    return os.str();
}

void
Poly::resize(int size)
{
    if (size > kInlineCoeffs) {
        ++heapSpills();
        heap_.assign(size, 0.0);
        inlineSize_ = 0;
    } else {
        std::fill(inline_.begin(), inline_.begin() + size, 0.0);
        inlineSize_ = size;
    }
}

void
Poly::trim()
{
    const double *c = data();
    int n = size();
    while (n > 0 && std::abs(c[n - 1]) <= kEps)
        --n;
    if (heap_.empty()) {
        inlineSize_ = n;
    } else if (n > kInlineCoeffs) {
        heap_.resize(n);
    } else {
        // Back under the capacity: return to the inline form.
        std::copy(c, c + n, inline_.begin());
        inlineSize_ = n;
        heap_ = std::vector<double>();
    }
}

} // namespace memoria
