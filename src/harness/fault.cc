#include "harness/fault.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "harness/budget.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace memoria {
namespace harness {

namespace {

/** Registration happens during static init; guard anyway so lazy
 *  (function-local) sites stay correct. */
std::mutex &
registryMutex()
{
    static std::mutex m;
    return m;
}

std::vector<FaultSite *> &
registry()
{
    static std::vector<FaultSite *> sites;
    return sites;
}

/** Fast-path gate: true when a plan is armed or accounting is on. */
std::atomic<bool> gActive{false};
std::atomic<bool> gAccounting{false};

std::mutex gPlanMutex;
std::optional<FaultSpec> gPlan;
uint64_t gPlanHits = 0;  ///< matching hits since armFault (guarded)
bool gPlanFired = false;

thread_local std::map<std::string, uint64_t> tlsHits;
thread_local std::string tlsProgram;

void
refreshActive()
{
    gActive.store(gPlan.has_value() ||
                      gAccounting.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
}

/** Cooperative stall: sleep in small slices, polling the budget token
 *  so a deadline converts the stall into a clean cancellation. */
void
stall(int ms, const char *site)
{
    auto end = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(ms);
    while (std::chrono::steady_clock::now() < end) {
        poll(site);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    poll(site);
}

} // namespace

const char *
faultActionName(FaultAction a)
{
    switch (a) {
      case FaultAction::Throw:
        return "throw";
      case FaultAction::Diag:
        return "diag";
      case FaultAction::Stall:
        return "stall";
      case FaultAction::Abort:
        return "abort";
    }
    return "?";
}

std::string
FaultSpec::str() const
{
    std::string s = site;
    s += ":";
    s += faultActionName(action);
    s += ':';
    s += std::to_string(onHit);
    if (!program.empty())
        s += "@" + program;
    return s;
}

FaultSite::FaultSite(const char *name, bool supportsDiag)
    : name_(name), supportsDiag_(supportsDiag)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    registry().push_back(this);
}

std::optional<Diag>
FaultSite::fire()
{
    if (!gActive.load(std::memory_order_relaxed))
        return std::nullopt;

    if (gAccounting.load(std::memory_order_relaxed))
        ++tlsHits[name_];

    FaultAction action;
    int stallMs;
    {
        std::lock_guard<std::mutex> lock(gPlanMutex);
        if (!gPlan || gPlan->site != name_ || gPlanFired)
            return std::nullopt;
        if (!gPlan->program.empty() && gPlan->program != tlsProgram)
            return std::nullopt;
        if (++gPlanHits < static_cast<uint64_t>(gPlan->onHit))
            return std::nullopt;
        gPlanFired = true;
        action = gPlan->action;
        stallMs = gPlan->stallMs;
    }

    switch (action) {
      case FaultAction::Throw:
        throw InjectedFault(name_);
      case FaultAction::Diag:
        return Diag::error("harness.injected",
                           "injected fault at " + std::string(name_));
      case FaultAction::Stall:
        stall(stallMs, name_);
        return std::nullopt;
      case FaultAction::Abort:
        // A deliberate hard crash: no unwinding, no containment. The
        // process dies with SIGABRT; only a supervising parent process
        // (serve/supervisor.hh) can turn this into a clean outcome.
        std::abort();
    }
    return std::nullopt;
}

void
FaultSite::fireNoDiag()
{
    if (std::optional<Diag> d = fire())
        throw InjectedFault(name_);
}

void
armFault(const FaultSpec &spec)
{
    std::lock_guard<std::mutex> lock(gPlanMutex);
    gPlan = spec;
    gPlanHits = 0;
    gPlanFired = false;
    refreshActive();
}

void
clearFault()
{
    std::lock_guard<std::mutex> lock(gPlanMutex);
    gPlan.reset();
    gPlanHits = 0;
    gPlanFired = false;
    refreshActive();
}

std::optional<FaultSpec>
armedFault()
{
    std::lock_guard<std::mutex> lock(gPlanMutex);
    return gPlan;
}

bool
armedFaultFired()
{
    std::lock_guard<std::mutex> lock(gPlanMutex);
    return gPlanFired;
}

std::vector<std::string>
faultSites()
{
    std::lock_guard<std::mutex> lock(registryMutex());
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const FaultSite *s : registry())
        names.push_back(s->name());
    std::sort(names.begin(), names.end());
    return names;
}

bool
faultSiteSupportsDiag(const std::string &name)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    for (const FaultSite *s : registry())
        if (name == s->name())
            return s->supportsDiag();
    return false;
}

FaultSpec
seededFault(uint64_t seed)
{
    std::vector<std::string> names = faultSites();
    MEMORIA_ASSERT(!names.empty(), "no fault sites registered");
    // splitmix64 step so consecutive seeds pick unrelated sites.
    const uint64_t h = splitmix64(seed);
    FaultSpec spec;
    spec.site = names[h % names.size()];
    // % 3 on purpose: seeded campaigns must stay containable, so Abort
    // (which kills the process) is never picked at random.
    spec.action = static_cast<FaultAction>((h >> 8) % 3);
    spec.onHit = 1 + static_cast<int>((h >> 16) % 3);
    spec.stallMs = 20;
    return spec;
}

Result<FaultSpec>
parseFaultSpec(const std::string &text)
{
    auto bad = [&](const std::string &why) {
        return Result<FaultSpec>::err(Diag::error(
            "harness.fault_spec", "'" + text + "': " + why +
                "; expected site[:throw|diag|stall[:N]][@program]"));
    };

    std::string body = text;
    FaultSpec spec;
    if (size_t at = body.find('@'); at != std::string::npos) {
        spec.program = body.substr(at + 1);
        body = body.substr(0, at);
        if (spec.program.empty())
            return bad("empty program filter");
    }

    std::vector<std::string> parts;
    size_t start = 0;
    while (true) {
        size_t colon = body.find(':', start);
        parts.push_back(body.substr(start, colon - start));
        if (colon == std::string::npos)
            break;
        start = colon + 1;
    }
    if (parts.empty() || parts[0].empty())
        return bad("missing site name");
    if (parts.size() > 3)
        return bad("too many ':' fields");

    spec.site = parts[0];
    std::vector<std::string> known = faultSites();
    if (std::find(known.begin(), known.end(), spec.site) == known.end())
        return bad("unknown site (see `memoria batch --list-faults`)");

    if (parts.size() > 1) {
        const std::string &a = parts[1];
        if (a == "throw")
            spec.action = FaultAction::Throw;
        else if (a == "diag")
            spec.action = FaultAction::Diag;
        else if (a == "stall")
            spec.action = FaultAction::Stall;
        else if (a == "abort")
            spec.action = FaultAction::Abort;
        else
            return bad("unknown action '" + a + "'");
    }
    if (parts.size() > 2) {
        try {
            spec.onHit = std::stoi(parts[2]);
        } catch (const std::exception &) {
            spec.onHit = 0;
        }
        if (spec.onHit < 1)
            return bad("hit count must be a positive integer");
    }
    return spec;
}

void
setFaultAccounting(bool on)
{
    gAccounting.store(on, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(gPlanMutex);
    refreshActive();
}

std::map<std::string, uint64_t>
drainFaultHits()
{
    std::map<std::string, uint64_t> out;
    out.swap(tlsHits);
    return out;
}

ProgramContext::ProgramContext(std::string name)
    : prev_(std::move(tlsProgram))
{
    tlsProgram = std::move(name);
}

ProgramContext::~ProgramContext()
{
    tlsProgram = std::move(prev_);
}

} // namespace harness
} // namespace memoria
