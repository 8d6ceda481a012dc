/**
 * @file
 * Structured event tracing for the Memoria pipeline.
 *
 * The pipeline emits two kinds of records: point *events*
 * (`traceEvent`) and RAII *spans* (`TraceScope`) that measure
 * wall-clock time and nest, so per-pass timing falls out of the scope
 * structure for free. Every record carries a category (`pass.compound`,
 * `cachesim`, ...), a name, and a flat key/value payload.
 *
 * Records flow into one process-wide pluggable `TraceSink`: none (the
 * default — `tracingEnabled()` is a single pointer test, so an
 * uninstrumented run pays nothing), a human-readable text sink, a
 * JSON-lines writer, or an in-memory recording sink for tests. Hot
 * paths must guard payload construction with `tracingEnabled()`.
 *
 * Emission is safe from multiple threads (the batch driver's worker
 * pool traces concurrently): records get a process-wide atomic sequence
 * number, span depth is per-thread, and sink calls are serialized by a
 * mutex — sinks themselves need no locking. See docs/OBSERVABILITY.md
 * for the event schema.
 */

#ifndef MEMORIA_SUPPORT_TRACE_HH
#define MEMORIA_SUPPORT_TRACE_HH

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace memoria {
namespace obs {

/** One typed payload value (string, integer, float, or bool). */
class TraceValue
{
  public:
    enum class Kind { Str, Int, Float, Bool };

    TraceValue(const char *s) : kind_(Kind::Str), str_(s) {}
    TraceValue(std::string s) : kind_(Kind::Str), str_(std::move(s)) {}
    TraceValue(bool b) : kind_(Kind::Bool), int_(b ? 1 : 0) {}
    TraceValue(double f) : kind_(Kind::Float), float_(f) {}
    /** Any integral type (bool is caught by the overload above). */
    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T>>>
    TraceValue(T i) : kind_(Kind::Int), int_(static_cast<int64_t>(i))
    {
    }

    Kind kind() const { return kind_; }

    /** Human-readable rendering (unquoted strings). */
    std::string render() const;

    /** JSON rendering (quoted/escaped strings, true/false, numbers). */
    std::string renderJson() const;

  private:
    Kind kind_;
    std::string str_;
    int64_t int_ = 0;
    double float_ = 0.0;
};

using TraceArg = std::pair<std::string, TraceValue>;

/** One trace record, point event or completed span. */
struct TraceEvent
{
    enum class Type { Event, SpanBegin, SpanEnd };

    Type type = Type::Event;
    std::string category;
    std::string name;
    std::vector<TraceArg> args;

    /** Span-nesting depth at emission (0 = top level). */
    int depth = 0;

    /** Wall-clock duration; valid for SpanEnd records only. */
    double durationUs = 0.0;

    /** Monotonically increasing per-process sequence number. */
    uint64_t seq = 0;

    /** Request-scoped trace context at emission ("" / 0 = none).
     *  Stamped by the emitter from the thread's TraceContext. */
    std::string traceId;
    uint64_t spanId = 0;
};

/**
 * Request-scoped trace context, carried in a thread-local and stamped
 * into every record the thread emits: the serve layer installs one
 * per request (accepting a client-supplied `trace_id` or minting one),
 * and because `harness::runIsolated` and everything below it run
 * synchronously on the worker thread, Compound / oracle / cachesim
 * spans inherit the id with no parameter threading. `spanId` is the id
 * of the innermost active TraceScope within the context (0 at top
 * level); span ids are process-unique.
 */
struct TraceContext
{
    std::string traceId;
    uint64_t spanId = 0;
};

/** This thread's current context ({} when none is installed). */
const TraceContext &currentTraceContext();

/** Process-unique trace id (16 hex chars, "t" prefix). */
std::string makeTraceId();

/**
 * RAII installer: sets this thread's trace id for the scope's
 * lifetime and restores the previous context on destruction. An empty
 * id installs an explicit "no context" (useful in tests).
 */
class TraceContextScope
{
  public:
    explicit TraceContextScope(std::string traceId);
    ~TraceContextScope();

    TraceContextScope(const TraceContextScope &) = delete;
    TraceContextScope &operator=(const TraceContextScope &) = delete;

  private:
    TraceContext saved_;
};

/**
 * Per-request stage-time accumulator (thread-local, microseconds).
 * `harness::runIsolated` resets it on entry and copies the totals into
 * `ProgramOutcome::timings`; the stages add their elapsed time from
 * wherever they run (load/simulate in the harness, verify inside
 * Compound's guard) — so the serve layer can stamp a per-stage
 * breakdown into every response without plumbing a parameter through
 * the pipeline.
 */
struct StageTimes
{
    double loadUs = 0.0;
    double optimizeUs = 0.0;
    double verifyUs = 0.0;
    double simulateUs = 0.0;

    void reset() { *this = StageTimes{}; }
};

/** This thread's accumulator (mutable; callers add elapsed time). */
StageTimes &stageTimes();

/** RAII: adds its wall-clock lifetime to one StageTimes field. */
class StageTimer
{
  public:
    explicit StageTimer(double StageTimes::*field);
    ~StageTimer();

    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

  private:
    double StageTimes::*field_;
    std::chrono::steady_clock::time_point start_;
};

/** Destination for trace records. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    virtual void event(const TraceEvent &e) = 0;

    /** Push buffered output to durable storage (called on crash). */
    virtual void flush() {}
};

/** Indented human-readable lines on an ostream (not owned). */
class TextSink : public TraceSink
{
  public:
    explicit TextSink(std::ostream &out) : out_(out) {}

    void event(const TraceEvent &e) override;
    void flush() override;

  private:
    std::ostream &out_;
};

/** One JSON object per line, written to a file the sink owns. */
class JsonLinesSink : public TraceSink
{
  public:
    /** Opens `path` for writing; calls fatal() when it cannot. */
    explicit JsonLinesSink(const std::string &path);

    /** Writes to a caller-owned stream (tests). */
    explicit JsonLinesSink(std::ostream &out);

    ~JsonLinesSink() override;

    void event(const TraceEvent &e) override;
    void flush() override;

  private:
    std::unique_ptr<std::ostream> owned_;
    std::ostream *out_;
};

/** Buffers every record in memory; the test suite's sink. */
class RecordingSink : public TraceSink
{
  public:
    void event(const TraceEvent &e) override { events.push_back(e); }

    std::vector<TraceEvent> events;
};

/**
 * Keeps the last `capacity` records — the "flight recorder" behind
 * incident bundles (harness/incident.hh): when a contained failure is
 * captured, the bundle includes the tail of recent trace activity even
 * when no file sink was requested. Records are stored as events and
 * rendered to JSON lines (JsonLinesSink's format) only when snapshotted.
 *
 * The most recently constructed RingSink is reachable via
 * `RingSink::instance()`; it may be a direct sink or one leg of a
 * TeeSink. snapshot() is thread-safe.
 */
class RingSink : public TraceSink
{
  public:
    explicit RingSink(size_t capacity = 256);
    ~RingSink() override;

    void event(const TraceEvent &e) override;

    /** Oldest-first copy of the buffered lines. */
    std::vector<std::string> snapshot() const;

    /**
     * Oldest-first copy of only the lines emitted under `traceId` —
     * the flight-recorder tail of one request. An empty id matches
     * records emitted with no context installed.
     */
    std::vector<std::string> snapshotFor(const std::string &traceId) const;

    /** The live ring, or nullptr when none is installed. */
    static RingSink *instance();

  private:
    mutable std::mutex mutex_;
    size_t capacity_;
    size_t next_ = 0;
    std::vector<TraceEvent> events_;  ///< circular once full
};

/** Forwards every record to two child sinks (file + ring, say). */
class TeeSink : public TraceSink
{
  public:
    TeeSink(std::unique_ptr<TraceSink> a, std::unique_ptr<TraceSink> b)
        : a_(std::move(a)), b_(std::move(b))
    {
    }

    void
    event(const TraceEvent &e) override
    {
        if (a_)
            a_->event(e);
        if (b_)
            b_->event(e);
    }

    void
    flush() override
    {
        if (a_)
            a_->flush();
        if (b_)
            b_->flush();
    }

  private:
    std::unique_ptr<TraceSink> a_;
    std::unique_ptr<TraceSink> b_;
};

namespace detail {
/** Raw sink pointer, read on every trace check — null means disabled. */
extern TraceSink *sinkPtr;
} // namespace detail

/** True when a sink is installed; the null fast path is this one test. */
inline bool
tracingEnabled()
{
    return detail::sinkPtr != nullptr;
}

/**
 * Install (or, with nullptr, remove) the process-wide sink. The
 * previous sink is flushed before being destroyed.
 */
void setTraceSink(std::unique_ptr<TraceSink> sink);

/** Flush the installed sink, if any; safe to call from fatal/panic. */
void flushTrace();

/**
 * Best-effort flush for signal handlers: uses try_lock so a handler
 * that interrupted an in-progress emit skips the flush instead of
 * deadlocking. Returns false when the lock was contended.
 */
bool tryFlushTrace();

/** Render one record as the JSON-lines sink would (no newline). */
std::string renderTraceJson(const TraceEvent &e);

/**
 * Emit a point event. Callers on hot paths should guard with
 * `tracingEnabled()` so the payload is never built when disabled.
 */
void traceEvent(std::string category, std::string name,
                std::initializer_list<TraceArg> args = {});

/** Payload-vector overload for dynamically built argument lists. */
void traceEvent(std::string category, std::string name,
                std::vector<TraceArg> args);

/**
 * RAII span: emits SpanBegin on construction and SpanEnd (carrying the
 * accumulated args and the wall-clock duration) on destruction. When no
 * sink is installed the scope is inert and costs one branch.
 */
class TraceScope
{
  public:
    TraceScope(std::string category, std::string name);
    ~TraceScope();

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    /** Attach one payload entry to the eventual SpanEnd record. */
    void arg(std::string key, TraceValue value);

    /** Whether this span is live (a sink existed at construction). */
    bool active() const { return active_; }

  private:
    bool active_ = false;
    std::string category_;
    std::string name_;
    std::vector<TraceArg> args_;
    std::chrono::steady_clock::time_point start_;
    /** This span's id within the request context (0 = no context);
     *  the parent's id is restored on destruction. */
    uint64_t spanId_ = 0;
    uint64_t parentSpanId_ = 0;
};

} // namespace obs
} // namespace memoria

#endif // MEMORIA_SUPPORT_TRACE_HH
