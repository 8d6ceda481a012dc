/**
 * @file
 * Cooperative deadlines and resource budgets for the pipeline.
 *
 * A `CancelToken` carries the limits one unit of work (typically one
 * batch program) may consume: a wall-clock deadline, an IR node budget,
 * and an interpreter iteration budget. The token is installed for the
 * current thread with a `BudgetScope`; library layers then poll it at
 * natural boundaries — the parser per statement, Compound per nest, the
 * equivalence oracle per round, the interpreter every few thousand loop
 * iterations — via `harness::poll()` and the charge helpers. Exceeding
 * any limit throws `CancelledError`, which unwinds the current attempt
 * and is caught by the degradation ladder / batch driver
 * (harness/ladder.hh, harness/batch.hh).
 *
 * With no scope installed every check is one thread-local pointer test,
 * so single-program CLI runs and the test suite pay nothing.
 */

#ifndef MEMORIA_HARNESS_BUDGET_HH
#define MEMORIA_HARNESS_BUDGET_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace memoria {
namespace harness {

/** Limits for one unit of work; 0 means unlimited. */
struct Budget
{
    /** Wall-clock deadline per pipeline attempt, in milliseconds. */
    int64_t deadlineMs = 0;

    /** Maximum IR nodes any single program version may hold. */
    uint64_t maxIrNodes = 0;

    /** Maximum interpreter loop iterations across the attempt. */
    uint64_t maxInterpIterations = 0;
};

/** Why an attempt was cancelled. */
enum class CancelKind
{
    Deadline,    ///< wall-clock deadline exceeded
    IrBudget,    ///< IR node budget exhausted
    IterBudget,  ///< interpreter iteration budget exhausted
    External,    ///< CancelToken::cancel() was called
};

/** Printable name ("deadline", "ir_budget", "iter_budget", "cancel"). */
const char *cancelKindName(CancelKind k);

/**
 * Thrown by poll()/charge helpers when a budget is exhausted. Plain
 * struct, deliberately not a std::exception subclass: generic
 * catch(std::exception) containment handlers in the batch driver must
 * not swallow cancellation, which has its own control flow.
 */
struct CancelledError
{
    CancelKind kind = CancelKind::Deadline;
    std::string where;  ///< poll site, e.g. "compound.nest"

    std::string str() const;
};

/** One attempt's budget state; shared between poller and owner. */
class CancelToken
{
  public:
    explicit CancelToken(const Budget &budget);

    /** Request cooperative cancellation from another thread. */
    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

    /** Throws CancelledError when any limit is exceeded. */
    void poll(const char *where) const;

    /** Count interpreter iterations, then poll. */
    void chargeIterations(uint64_t n, const char *where);

    /** Check a program's node count against the IR budget. */
    void chargeIrNodes(uint64_t nodes, const char *where);

    /** Resources consumed so far (for the batch report). */
    uint64_t iterationsUsed() const
    {
        return iterations_.load(std::memory_order_relaxed);
    }
    uint64_t maxIrNodesSeen() const
    {
        return irNodesSeen_.load(std::memory_order_relaxed);
    }

    const Budget &budget() const { return budget_; }

  private:
    Budget budget_;
    std::chrono::steady_clock::time_point deadline_;
    std::atomic<bool> cancelled_{false};
    std::atomic<uint64_t> iterations_{0};
    std::atomic<uint64_t> irNodesSeen_{0};
};

/** The token installed for the current thread, or nullptr. */
CancelToken *currentToken();

/** RAII: install `token` as the current thread's budget context. */
class BudgetScope
{
  public:
    explicit BudgetScope(CancelToken *token);
    ~BudgetScope();

    BudgetScope(const BudgetScope &) = delete;
    BudgetScope &operator=(const BudgetScope &) = delete;

  private:
    CancelToken *previous_;
};

/** Poll the current thread's token; no-op when none is installed. */
inline void
poll(const char *where)
{
    if (CancelToken *t = currentToken())
        t->poll(where);
}

/** Charge interpreter iterations against the current token. */
inline void
chargeIterations(uint64_t n, const char *where)
{
    if (CancelToken *t = currentToken())
        t->chargeIterations(n, where);
}

/** Charge an IR node count against the current token. */
inline void
chargeIrNodes(uint64_t nodes, const char *where)
{
    if (CancelToken *t = currentToken())
        t->chargeIrNodes(nodes, where);
}

} // namespace harness
} // namespace memoria

#endif // MEMORIA_HARNESS_BUDGET_HH
