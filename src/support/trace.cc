#include "support/trace.hh"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>

#include "support/json.hh"
#include "support/logging.hh"

namespace memoria {
namespace obs {

namespace detail {
TraceSink *sinkPtr = nullptr;
} // namespace detail

namespace {

/** Owner of the installed sink; detail::sinkPtr aliases it. */
std::unique_ptr<TraceSink> ownedSink;

/** Process-wide ordering of records across threads. */
std::atomic<uint64_t> nextSeq{0};

/** Span nesting is a per-thread notion: batch workers each carry their
 *  own depth, so one worker's spans never indent another's records. */
thread_local int spanDepth = 0;

/** The thread's request-scoped context; {} when none is installed. */
thread_local TraceContext tlsContext;

/** The thread's per-request stage-time accumulator. */
thread_local StageTimes tlsStageTimes;

/** Span ids are process-unique so ids stay distinct across workers.
 *  0 is reserved for "no span"; the counter starts at 1. */
std::atomic<uint64_t> nextSpanId{1};

/** Sinks are not required to be thread-safe; emission is serialized. */
std::mutex emitMutex;

/** Render a double without trailing-zero noise, JSON-valid. */
std::string
renderDouble(double v)
{
    std::ostringstream os;
    os << v;
    std::string s = os.str();
    if (s == "inf")
        return "1e308";
    if (s == "-inf")
        return "-1e308";
    if (s == "nan" || s == "-nan")
        return "null";
    return s;
}

void
emit(TraceEvent &&e)
{
    e.seq = nextSeq.fetch_add(1, std::memory_order_relaxed);
    if (!tlsContext.traceId.empty()) {
        e.traceId = tlsContext.traceId;
        e.spanId = tlsContext.spanId;
    }
    std::lock_guard<std::mutex> lock(emitMutex);
    // Re-check under the lock: setTraceSink may have raced us.
    if (detail::sinkPtr)
        detail::sinkPtr->event(e);
}

const char *
typeName(TraceEvent::Type t)
{
    switch (t) {
      case TraceEvent::Type::Event:
        return "event";
      case TraceEvent::Type::SpanBegin:
        return "begin";
      case TraceEvent::Type::SpanEnd:
        return "span";
    }
    return "?";
}

} // namespace

const TraceContext &
currentTraceContext()
{
    return tlsContext;
}

std::string
makeTraceId()
{
    // Process-unique, human-greppable: a per-process random-ish base
    // (steady-clock ticks at first use, so two processes started apart
    // differ) mixed with a process-wide counter via splitmix64.
    static const uint64_t base = static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    static std::atomic<uint64_t> counter{0};
    uint64_t x = base + 0x9e3779b97f4a7c15ULL *
                            (counter.fetch_add(1, std::memory_order_relaxed) + 1);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    char buf[24];
    std::snprintf(buf, sizeof(buf), "t%016llx",
                  static_cast<unsigned long long>(x));
    return buf;
}

TraceContextScope::TraceContextScope(std::string traceId)
    : saved_(std::move(tlsContext))
{
    tlsContext.traceId = std::move(traceId);
    tlsContext.spanId = 0;
}

TraceContextScope::~TraceContextScope()
{
    tlsContext = std::move(saved_);
}

StageTimes &
stageTimes()
{
    return tlsStageTimes;
}

StageTimer::StageTimer(double StageTimes::*field)
    : field_(field), start_(std::chrono::steady_clock::now())
{
}

StageTimer::~StageTimer()
{
    tlsStageTimes.*field_ +=
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start_)
            .count();
}

std::string
TraceValue::render() const
{
    switch (kind_) {
      case Kind::Str:
        return str_;
      case Kind::Bool:
        return int_ ? "true" : "false";
      case Kind::Int:
        return std::to_string(int_);
      case Kind::Float:
        return renderDouble(float_);
    }
    return "?";
}

std::string
TraceValue::renderJson() const
{
    if (kind_ == Kind::Str)
        return json::quote(str_);
    return render();
}

void
TextSink::event(const TraceEvent &e)
{
    out_ << "[trace] ";
    for (int i = 0; i < e.depth; ++i)
        out_ << "  ";
    out_ << typeName(e.type) << " " << e.category << "/" << e.name;
    for (const auto &[key, value] : e.args)
        out_ << " " << key << "=" << value.render();
    if (e.type == TraceEvent::Type::SpanEnd)
        out_ << " (" << renderDouble(e.durationUs) << "us)";
    out_ << "\n";
}

void
TextSink::flush()
{
    out_.flush();
}

JsonLinesSink::JsonLinesSink(const std::string &path)
    : owned_(std::make_unique<std::ofstream>(path)), out_(owned_.get())
{
    if (!*out_)
        fatal("cannot open trace file '" + path + "'");
}

JsonLinesSink::JsonLinesSink(std::ostream &out) : out_(&out) {}

JsonLinesSink::~JsonLinesSink()
{
    out_->flush();
}

std::string
renderTraceJson(const TraceEvent &e)
{
    std::ostringstream out;
    out << "{\"type\":" << json::quote(typeName(e.type))
        << ",\"seq\":" << e.seq << ",\"cat\":" << json::quote(e.category)
        << ",\"name\":" << json::quote(e.name) << ",\"depth\":" << e.depth;
    if (!e.traceId.empty())
        out << ",\"trace\":" << json::quote(e.traceId)
            << ",\"span\":" << e.spanId;
    if (e.type == TraceEvent::Type::SpanEnd)
        out << ",\"dur_us\":" << renderDouble(e.durationUs);
    if (!e.args.empty()) {
        out << ",\"args\":{";
        bool first = true;
        for (const auto &[key, value] : e.args) {
            if (!first)
                out << ",";
            first = false;
            out << json::quote(key) << ":" << value.renderJson();
        }
        out << "}";
    }
    out << "}";
    return out.str();
}

void
JsonLinesSink::event(const TraceEvent &e)
{
    *out_ << renderTraceJson(e) << "\n";
}

void
JsonLinesSink::flush()
{
    out_->flush();
}

void
setTraceSink(std::unique_ptr<TraceSink> sink)
{
    std::lock_guard<std::mutex> lock(emitMutex);
    if (ownedSink)
        ownedSink->flush();
    ownedSink = std::move(sink);
    detail::sinkPtr = ownedSink.get();
    nextSeq.store(0, std::memory_order_relaxed);
    spanDepth = 0;
}

void
flushTrace()
{
    std::lock_guard<std::mutex> lock(emitMutex);
    if (detail::sinkPtr)
        detail::sinkPtr->flush();
}

bool
tryFlushTrace()
{
    std::unique_lock<std::mutex> lock(emitMutex, std::try_to_lock);
    if (!lock.owns_lock())
        return false;
    if (detail::sinkPtr)
        detail::sinkPtr->flush();
    return true;
}

namespace {
/** Most recently constructed ring; cleared by its own destructor. */
std::atomic<RingSink *> gRing{nullptr};
} // namespace

RingSink::RingSink(size_t capacity) : capacity_(capacity ? capacity : 1)
{
    gRing.store(this, std::memory_order_release);
}

RingSink::~RingSink()
{
    RingSink *self = this;
    gRing.compare_exchange_strong(self, nullptr);
}

void
RingSink::event(const TraceEvent &e)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (events_.size() < capacity_) {
        events_.push_back(e);
    } else {
        events_[next_] = e;
        next_ = (next_ + 1) % capacity_;
    }
}

std::vector<std::string>
RingSink::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(events_.size());
    // next_ is the oldest slot once the ring has wrapped.
    for (size_t i = 0; i < events_.size(); ++i)
        out.push_back(
            renderTraceJson(events_[(next_ + i) % events_.size()]));
    return out;
}

std::vector<std::string>
RingSink::snapshotFor(const std::string &traceId) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    for (size_t i = 0; i < events_.size(); ++i) {
        const TraceEvent &e = events_[(next_ + i) % events_.size()];
        if (e.traceId == traceId)
            out.push_back(renderTraceJson(e));
    }
    return out;
}

RingSink *
RingSink::instance()
{
    return gRing.load(std::memory_order_acquire);
}

void
traceEvent(std::string category, std::string name,
           std::initializer_list<TraceArg> args)
{
    traceEvent(std::move(category), std::move(name),
               std::vector<TraceArg>(args));
}

void
traceEvent(std::string category, std::string name,
           std::vector<TraceArg> args)
{
    if (!tracingEnabled())
        return;
    TraceEvent e;
    e.type = TraceEvent::Type::Event;
    e.category = std::move(category);
    e.name = std::move(name);
    e.args = std::move(args);
    e.depth = spanDepth;
    emit(std::move(e));
}

TraceScope::TraceScope(std::string category, std::string name)
{
    if (!tracingEnabled())
        return;
    active_ = true;
    category_ = std::move(category);
    name_ = std::move(name);
    start_ = std::chrono::steady_clock::now();

    // Inside a request context, this span gets a fresh process-unique
    // id and becomes the thread's innermost span for its lifetime.
    if (!tlsContext.traceId.empty()) {
        spanId_ = nextSpanId.fetch_add(1, std::memory_order_relaxed);
        parentSpanId_ = tlsContext.spanId;
        tlsContext.spanId = spanId_;
    }

    TraceEvent e;
    e.type = TraceEvent::Type::SpanBegin;
    e.category = category_;
    e.name = name_;
    e.depth = spanDepth++;
    emit(std::move(e));
}

TraceScope::~TraceScope()
{
    if (!active_)
        return;
    // Pops the thread's innermost span id back to the parent; the
    // SpanEnd record below is emitted first so it carries *this*
    // span's id, not the parent's.
    struct PopSpan
    {
        uint64_t spanId, parent;
        ~PopSpan()
        {
            if (spanId != 0 && tlsContext.spanId == spanId)
                tlsContext.spanId = parent;
        }
    } pop{spanId_, parentSpanId_};
    // The sink may have been swapped out mid-span (tests); drop the
    // record rather than write to the wrong sink with a skewed depth.
    if (!tracingEnabled()) {
        active_ = false;
        return;
    }
    auto end = std::chrono::steady_clock::now();
    TraceEvent e;
    e.type = TraceEvent::Type::SpanEnd;
    e.category = std::move(category_);
    e.name = std::move(name_);
    e.args = std::move(args_);
    e.depth = --spanDepth;
    e.durationUs =
        std::chrono::duration<double, std::micro>(end - start_).count();
    emit(std::move(e));
}

void
TraceScope::arg(std::string key, TraceValue value)
{
    if (active_)
        args_.emplace_back(std::move(key), std::move(value));
}

} // namespace obs
} // namespace memoria
