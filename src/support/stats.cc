#include "support/stats.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "support/clock.hh"

namespace memoria {
namespace obs {

namespace {

/** Render a double compactly and JSON-valid (no inf/nan). */
std::string
num(double v)
{
    std::ostringstream os;
    os << v;
    std::string s = os.str();
    if (s == "inf" || s == "-inf" || s == "nan" || s == "-nan")
        return "0";
    return s;
}

std::string
quoted(const std::string &s)
{
    // Stat names are code-chosen dotted identifiers; no escaping needed
    // beyond the quotes themselves.
    return "\"" + s + "\"";
}

} // namespace

double
Histogram::bucketUpperEdge(int b)
{
    if (b <= 0)
        return 1.0;
    if (b >= kNumBuckets - 1)
        return std::numeric_limits<double>::infinity();
    return std::exp2(0.5 * b);
}

int
Histogram::bucketIndex(double v)
{
    if (!(v >= 1.0))  // negatives and NaN land in bucket 0 too
        return 0;
    // 2*log2(v) is within one of the true index; the edge comparisons
    // below make the result exactly consistent with bucketUpperEdge.
    int b = static_cast<int>(std::floor(2.0 * std::log2(v))) + 1;
    b = std::clamp(b, 1, kNumBuckets - 1);
    while (b > 0 && v < bucketUpperEdge(b - 1))
        --b;
    while (b < kNumBuckets - 1 && v >= bucketUpperEdge(b))
        ++b;
    return b;
}

double
Histogram::quantileLocked(double q) const
{
    if (count_ == 0)
        return 0.0;
    // The extremes are tracked exactly; only interior quantiles pay
    // the bucket-resolution error.
    if (q <= 0.0)
        return min_;
    if (q >= 1.0)
        return max_;

    // Nearest-rank: the bucket holding the ceil(q*count)-th sample.
    uint64_t rank = static_cast<uint64_t>(std::ceil(q * count_));
    rank = std::clamp<uint64_t>(rank, 1, count_);

    uint64_t cum = 0;
    for (int b = 0; b < kNumBuckets; ++b) {
        if (buckets_[b] == 0)
            continue;
        if (cum + buckets_[b] < rank) {
            cum += buckets_[b];
            continue;
        }
        // Interpolate within the bucket; the overflow bucket and
        // bucket 0 use the observed extremes as their open edge.
        double lo = b == 0 ? std::min(min_, 0.0)
                           : bucketUpperEdge(b - 1);
        double hi = b == kNumBuckets - 1 ? std::max(max_, lo)
                                         : bucketUpperEdge(b);
        double frac = static_cast<double>(rank - cum) / buckets_[b];
        double v = lo + frac * (hi - lo);
        return std::clamp(v, min_, max_);
    }
    return max_;
}

double
Histogram::quantile(double q) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quantileLocked(q);
}

Histogram::Snapshot
Histogram::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot s;
    s.count = count_;
    s.sum = sum_;
    s.min = count_ ? min_ : 0.0;
    s.max = count_ ? max_ : 0.0;
    s.buckets = buckets_;
    return s;
}

ScopedTimer::ScopedTimer(Histogram &h) : hist_(h), startUs_(steadyUsF()) {}

ScopedTimer::~ScopedTimer()
{
    hist_.sample(steadyUsF() - startUs_);
}

Counter &
StatsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
StatsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
StatsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

void
StatsRegistry::dumpText(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t width = 0;
    for (const auto &[name, c] : counters_)
        width = std::max(width, name.size());
    for (const auto &[name, g] : gauges_)
        width = std::max(width, name.size());
    for (const auto &[name, h] : histograms_)
        width = std::max(width, name.size());

    out << "---------- stats ----------\n";
    for (const auto &[name, c] : counters_)
        out << std::left << std::setw(static_cast<int>(width)) << name
            << "  " << c->value() << "\n";
    for (const auto &[name, g] : gauges_)
        out << std::left << std::setw(static_cast<int>(width)) << name
            << "  " << num(g->value()) << "\n";
    for (const auto &[name, h] : histograms_)
        out << std::left << std::setw(static_cast<int>(width)) << name
            << "  count=" << h->count() << " sum=" << num(h->sum())
            << " min=" << num(h->min()) << " max=" << num(h->max())
            << " mean=" << num(h->mean())
            << " p50=" << num(h->quantile(0.5))
            << " p99=" << num(h->quantile(0.99)) << "\n";
    out << "---------------------------\n";
}

void
StatsRegistry::dumpJson(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    out << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        if (!first)
            out << ",";
        first = false;
        out << quoted(name) << ":" << c->value();
    }
    out << "},\"gauges\":{";
    first = true;
    for (const auto &[name, g] : gauges_) {
        if (!first)
            out << ",";
        first = false;
        out << quoted(name) << ":" << num(g->value());
    }
    out << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms_) {
        if (!first)
            out << ",";
        first = false;
        out << quoted(name) << ":{\"count\":" << h->count()
            << ",\"sum\":" << num(h->sum()) << ",\"min\":" << num(h->min())
            << ",\"max\":" << num(h->max())
            << ",\"mean\":" << num(h->mean())
            << ",\"p50\":" << num(h->quantile(0.5))
            << ",\"p90\":" << num(h->quantile(0.9))
            << ",\"p99\":" << num(h->quantile(0.99)) << "}";
    }
    out << "}}\n";
}

void
StatsRegistry::resetValues()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

void
StatsRegistry::forEachCounter(
    const std::function<void(const std::string &, const Counter &)> &fn) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, c] : counters_)
        fn(name, *c);
}

void
StatsRegistry::forEachGauge(
    const std::function<void(const std::string &, const Gauge &)> &fn) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, g] : gauges_)
        fn(name, *g);
}

void
StatsRegistry::forEachHistogram(
    const std::function<void(const std::string &, const Histogram &)> &fn)
    const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, h] : histograms_)
        fn(name, *h);
}

StatsRegistry &
statsRegistry()
{
    static StatsRegistry registry;
    return registry;
}

Counter &
counter(const std::string &name)
{
    return statsRegistry().counter(name);
}

Gauge &
gauge(const std::string &name)
{
    return statsRegistry().gauge(name);
}

Histogram &
histogram(const std::string &name)
{
    return statsRegistry().histogram(name);
}

} // namespace obs
} // namespace memoria
