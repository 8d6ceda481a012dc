/**
 * @file
 * Fault-injection registry for the resilient batch pipeline.
 *
 * Every layer of the pipeline declares named *fault sites* — the parser,
 * the validator, the dependence tester, each transform, the equivalence
 * oracle, the interpreter, and the cache simulator — as namespace-scope
 * `FaultSite` objects that self-register at static-initialization time,
 * so the full catalog is enumerable (`faultSites()`) without running
 * anything. CI arms each site in turn and proves the batch driver
 * contains the failure (docs/ROBUSTNESS.md, "Fault injection").
 *
 * A `FaultPlan` arms at most one site at a time with an action:
 *
 *  - `Throw` — raise an `InjectedFault` (a std::runtime_error);
 *  - `Diag`  — surface a recoverable Diag through the site's own error
 *              channel (sites without one treat Diag as Throw);
 *  - `Stall` — busy-wait `stallMs` milliseconds, polling the current
 *              budget token, to emulate a hang under a deadline.
 *
 * The plan fires once, on the Nth *matching* hit; an optional program
 * filter (set by the batch driver via `ProgramContext`) restricts
 * matches to one program so a sweep affects exactly one report even on
 * a parallel pool. Unarmed sites cost one relaxed atomic load.
 */

#ifndef MEMORIA_HARNESS_FAULT_HH
#define MEMORIA_HARNESS_FAULT_HH

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/diag.hh"

namespace memoria {
namespace harness {

/** What an armed fault site does when it fires. */
enum class FaultAction
{
    Throw,  ///< throw InjectedFault
    Diag,   ///< return a Diag through the site's error channel
    Stall,  ///< sleep stallMs, polling the budget token
    Abort,  ///< std::abort() — a hard crash no in-process boundary
            ///< contains; only the serve supervisor survives it
};

/** Printable name ("throw", "diag", "stall", "abort"). */
const char *faultActionName(FaultAction a);

/** One armed fault. */
struct FaultSpec
{
    std::string site;                   ///< registered site name
    FaultAction action = FaultAction::Throw;
    int onHit = 1;                      ///< fire on the Nth matching hit
    std::string program;                ///< only in this program ("" = any)
    int stallMs = 100;                  ///< Stall duration

    /** "site:action:N@program" rendering. */
    std::string str() const;
};

/** The exception an armed Throw site raises. */
class InjectedFault : public std::runtime_error
{
  public:
    explicit InjectedFault(const std::string &site)
        : std::runtime_error("injected fault at " + site), site_(site)
    {
    }

    const std::string &site() const { return site_; }

  private:
    std::string site_;
};

/**
 * One named site. Declare at namespace scope in the layer that owns it
 * so registration happens during static initialization:
 *
 *     static harness::FaultSite gSite("transform.permute");
 *     ...
 *     gSite.fireNoDiag();   // at the guarded boundary
 */
class FaultSite
{
  public:
    /** `supportsDiag` documents that the site has a Diag channel. */
    explicit FaultSite(const char *name, bool supportsDiag = false);

    FaultSite(const FaultSite &) = delete;
    FaultSite &operator=(const FaultSite &) = delete;

    const char *name() const { return name_; }
    bool supportsDiag() const { return supportsDiag_; }

    /**
     * Record a hit and fire if armed here. Returns a Diag for the
     * caller to propagate when the armed action is Diag; Throw and
     * Stall are handled internally.
     */
    std::optional<Diag> fire();

    /** For sites with no Diag channel: Diag degrades to Throw. */
    void fireNoDiag();

  private:
    const char *name_;
    bool supportsDiag_;
};

/** Arm `spec` (replacing any armed plan); resets the hit trigger. */
void armFault(const FaultSpec &spec);

/** Disarm; fault sites go back to the single-load fast path. */
void clearFault();

/** The armed plan, if any. */
std::optional<FaultSpec> armedFault();

/** True once the armed plan has fired. */
bool armedFaultFired();

/** Names of every registered site, sorted. */
std::vector<std::string> faultSites();

/** Whether a registered site has a Diag channel ("" = unknown site). */
bool faultSiteSupportsDiag(const std::string &name);

/**
 * Deterministically pick a site from the registry — a seeded plan for
 * randomized robustness campaigns. Same seed, same plan.
 */
FaultSpec seededFault(uint64_t seed);

/**
 * Parse "site[:action[:N]][@program]" (action: throw|diag|stall|abort).
 * Returns the spec or a Diag ("harness.fault_spec") for bad input.
 */
Result<FaultSpec> parseFaultSpec(const std::string &text);

/**
 * Per-thread hit accounting, used by the batch driver to attribute
 * site hits to programs: when enabled, every site hit increments a
 * thread-local per-site counter that `drainFaultHits` returns and
 * clears. Costs one map bump per site hit when on; nothing when off.
 */
void setFaultAccounting(bool on);

/** This thread's accumulated site hits; clears the accumulator. */
std::map<std::string, uint64_t> drainFaultHits();

/** RAII: name the program the current thread is processing, for the
 *  FaultSpec program filter and hit attribution. Contexts stack: a
 *  nested context (e.g. a reduction predicate re-running the isolated
 *  pipeline from inside a worker) shadows the outer name and restores
 *  it on destruction. */
class ProgramContext
{
  public:
    explicit ProgramContext(std::string name);
    ~ProgramContext();

    ProgramContext(const ProgramContext &) = delete;
    ProgramContext &operator=(const ProgramContext &) = delete;

  private:
    std::string prev_;
};

} // namespace harness
} // namespace memoria

#endif // MEMORIA_HARNESS_FAULT_HH
