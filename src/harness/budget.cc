#include "harness/budget.hh"

namespace memoria {
namespace harness {

namespace {

thread_local CancelToken *tlsToken = nullptr;

} // namespace

const char *
cancelKindName(CancelKind k)
{
    switch (k) {
      case CancelKind::Deadline:
        return "deadline";
      case CancelKind::IrBudget:
        return "ir_budget";
      case CancelKind::IterBudget:
        return "iter_budget";
      case CancelKind::External:
        return "cancel";
    }
    return "?";
}

std::string
CancelledError::str() const
{
    return std::string(cancelKindName(kind)) + " at " + where;
}

CancelToken::CancelToken(const Budget &budget)
    : budget_(budget)
{
    deadline_ = budget_.deadlineMs > 0
                    ? std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(budget_.deadlineMs)
                    : std::chrono::steady_clock::time_point::max();
}

void
CancelToken::poll(const char *where) const
{
    if (cancelled_.load(std::memory_order_relaxed))
        throw CancelledError{CancelKind::External, where};
    if (budget_.deadlineMs > 0 &&
        std::chrono::steady_clock::now() >= deadline_)
        throw CancelledError{CancelKind::Deadline, where};
}

void
CancelToken::chargeIterations(uint64_t n, const char *where)
{
    uint64_t total =
        iterations_.fetch_add(n, std::memory_order_relaxed) + n;
    if (budget_.maxInterpIterations > 0 &&
        total > budget_.maxInterpIterations)
        throw CancelledError{CancelKind::IterBudget, where};
    poll(where);
}

void
CancelToken::chargeIrNodes(uint64_t nodes, const char *where)
{
    uint64_t seen = irNodesSeen_.load(std::memory_order_relaxed);
    while (nodes > seen &&
           !irNodesSeen_.compare_exchange_weak(
               seen, nodes, std::memory_order_relaxed)) {
    }
    if (budget_.maxIrNodes > 0 && nodes > budget_.maxIrNodes)
        throw CancelledError{CancelKind::IrBudget, where};
    poll(where);
}

CancelToken *
currentToken()
{
    return tlsToken;
}

BudgetScope::BudgetScope(CancelToken *token) : previous_(tlsToken)
{
    tlsToken = token;
}

BudgetScope::~BudgetScope()
{
    tlsToken = previous_;
}

} // namespace harness
} // namespace memoria
