#include "serve/breaker.hh"

#include "support/clock.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace memoria {
namespace serve {

namespace {

/** Attribute a failure detail string to a stage by its dotted prefix
 *  conventions (Diag codes and fault-site names share them). */
bool
mentionsAny(const std::string &text,
            std::initializer_list<const char *> needles)
{
    for (const char *n : needles)
        if (text.find(n) != std::string::npos)
            return true;
    return false;
}

} // namespace

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::Load:
        return "load";
      case Stage::Optimize:
        return "optimize";
      case Stage::Simulate:
        return "simulate";
    }
    return "?";
}

Stage
classifyFailure(const harness::ProgramOutcome &out)
{
    std::string text = out.diag;
    if (!out.failures.empty()) {
        text += " ";
        text += out.failures.back().detail;
    }
    if (mentionsAny(text, {"parse.", "validate.", "frontend."}))
        return Stage::Load;
    if (mentionsAny(text, {"interp.", "cachesim.", "simulation"}))
        return Stage::Simulate;
    return Stage::Optimize;
}

const char *
CircuitBreaker::stateName(State s)
{
    switch (s) {
      case State::Closed:
        return "closed";
      case State::Open:
        return "open";
      case State::HalfOpen:
        return "half-open";
    }
    return "?";
}

CircuitBreaker::CircuitBreaker(std::string name, BreakerOptions opts)
    : name_(std::move(name)), opts_(opts)
{
}

bool
CircuitBreaker::allow()
{
    std::lock_guard<std::mutex> lock(mutex_);
    switch (state_) {
      case State::Closed:
        return true;
      case State::Open:
        if (steadyMs() - openedAtMs_ >= opts_.cooldownMs) {
            state_ = State::HalfOpen;
            probeInFlight_ = true;
            obs::traceEvent("serve", "breaker_half_open",
                            {{"stage", name_}});
            return true;
        }
        ++stats_.rejected;
        ++obs::counter("serve.breaker." + name_ + ".rejected");
        return false;
      case State::HalfOpen:
        if (!probeInFlight_) {
            probeInFlight_ = true;
            return true;
        }
        ++stats_.rejected;
        ++obs::counter("serve.breaker." + name_ + ".rejected");
        return false;
    }
    return true;
}

void
CircuitBreaker::onSuccess()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.successes;
    stats_.consecutiveFailures = 0;
    if (state_ == State::HalfOpen) {
        state_ = State::Closed;
        probeInFlight_ = false;
        ++stats_.resets;
        ++obs::counter("serve.breaker." + name_ + ".resets");
        obs::traceEvent("serve", "breaker_reset", {{"stage", name_}});
    }
}

void
CircuitBreaker::onFailure(const std::string &detail)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.failures;
    ++stats_.consecutiveFailures;
    stats_.lastFailure = detail;

    bool trip = false;
    if (state_ == State::HalfOpen) {
        // The probe failed; the stage is still broken.
        trip = true;
        probeInFlight_ = false;
    } else if (state_ == State::Closed &&
               stats_.consecutiveFailures >= opts_.failureThreshold) {
        trip = true;
    }
    if (trip) {
        state_ = State::Open;
        openedAtMs_ = steadyMs();
        ++stats_.trips;
        ++obs::counter("serve.breaker." + name_ + ".trips");
        obs::traceEvent("serve", "breaker_trip",
                        {{"stage", name_}, {"detail", detail}});
    }
}

CircuitBreaker::Snapshot
CircuitBreaker::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot s = stats_;
    s.state = state_;
    return s;
}

} // namespace serve
} // namespace memoria
