/**
 * @file
 * Incident bundles: minimized, replayable reproducers for contained
 * failures.
 *
 * Whenever the toolkit contains a failure — a verify rollback that
 * degraded a program, a contained panic, a budget timeout, a hostile
 * input Diag, a fuzz disagreement — the incident layer turns the event
 * into a directory under `artifacts/incidents/`:
 *
 *     <name>-<kind>/
 *         incident.json    what happened, build identity, reduction stats
 *         original.mem     the program as submitted
 *         minimized.mem    the ddmin-reduced program (when it shrank)
 *         trace.jsonl      tail of the flight-recorder ring, when one
 *                          was installed (obs::RingSink)
 *
 * The minimized program is produced by check/reduce.hh against a
 * *failure signature* — "re-running the isolated pipeline on this
 * candidate reproduces the same class of failure" — so the bundle ships
 * a reproducer that still fails, not merely a smaller program. When the
 * original failure was caused by an armed fault-injection plan, the
 * predicate re-arms the recorded spec (pinned to the candidate's
 * program name) before every evaluation, because plans are one-shot.
 *
 * `memoria serve`, `memoria batch`, and `memoria fuzz` all write these;
 * `memoria reduce` re-minimizes a bundle offline with bigger budgets.
 */

#ifndef MEMORIA_HARNESS_INCIDENT_HH
#define MEMORIA_HARNESS_INCIDENT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/reduce.hh"
#include "harness/batch.hh"
#include "harness/fault.hh"

namespace memoria {
namespace incident {

/** The class of failure a reduced candidate must reproduce. */
struct FailureSignature
{
    harness::BatchStatus status = harness::BatchStatus::PanicContained;

    /** For status Diag: the stable dotted code ("" = any Diag). */
    std::string diagCode;
};

/** Leading dotted code of a rendered Diag ("code: ..." / "code at .."). */
std::string diagCodeOf(const std::string &rendered);

/** The signature a contained outcome exhibits. */
FailureSignature signatureOf(const harness::ProgramOutcome &out);

/** Does this outcome reproduce the signature? */
bool matchesSignature(const FailureSignature &sig,
                      const harness::ProgramOutcome &out);

/**
 * A predicate that runs a candidate through the full isolation
 * boundary (`harness::runIsolated`) under `opts` and accepts when the
 * outcome matches `sig`. When `fault` is set, the spec is re-armed
 * before every evaluation with its program filter pinned to `name`,
 * restoring the one-shot plan the original failure consumed. The
 * caller owns global fault state afterward (see clearFault).
 */
FailurePredicate pipelineFailurePredicate(
    std::string name, harness::BatchOptions opts, FailureSignature sig,
    std::optional<harness::FaultSpec> fault = std::nullopt);

/** Everything a bundle records. */
struct Incident
{
    std::string name;       ///< program name
    std::string kind;       ///< failure class, e.g. "panic-contained"
    std::string detail;     ///< diagnostic / exception text
    std::string source;     ///< original program source
    std::string minimized;  ///< reduced source ("" = did not shrink)

    uint64_t seed = 0;          ///< fuzz seed (0 = not a fuzz incident)
    std::string faultSpec;      ///< armed fault plan ("" = none)
    std::string options;        ///< free-form request/CLI options text

    size_t origNodes = 0;
    size_t finalNodes = 0;
    int checks = 0;
    bool oneMinimal = false;

    /** The minimized program was re-confirmed to fail. */
    bool reproduced = false;

    std::vector<std::string> traceTail;  ///< flight-recorder JSONL lines
};

/** Bundling knobs shared by serve, batch and fuzz. */
struct IncidentPolicy
{
    /** Root directory for bundles. */
    std::string dir = "artifacts/incidents";

    /** Budgets for the reduction itself. */
    ReduceOptions reduce;

    /** Cap per processing pass; the rest are dropped (and counted). */
    int maxIncidents = 8;

    /** Total bundles kept under `dir`: after each write the oldest
     *  directories beyond this are deleted (<= 0 = unbounded). A
     *  long-lived serve must not grow artifacts/ without bound. */
    int maxRetained = 100;
};

/**
 * Write `inc` as a bundle directory under `root`; a numeric suffix
 * de-collides repeat incidents of the same program and kind. After a
 * successful write, bundle directories beyond `maxRetained` are
 * pruned oldest-first (by modification time; <= 0 disables pruning).
 * Returns the bundle path, or a Diag ("incident.write") on I/O
 * failure.
 */
Result<std::string> writeBundle(const Incident &inc,
                                const std::string &root,
                                int maxRetained = 100);

/**
 * Core capture path: minimize `program` against `pred` under the
 * policy's reduce budgets, fill in reduction stats and the trace tail,
 * and write the bundle. `inc` supplies identity (name/kind/detail/
 * source/seed/faultSpec/options); reduction fields are overwritten.
 */
Result<std::string> captureIncident(Incident inc, const Program &program,
                                    const FailurePredicate &pred,
                                    const IncidentPolicy &policy);

/**
 * Capture one contained batch outcome (requires
 * BatchOptions::captureSource so `out.source` is populated). Builds
 * the pipeline failure predicate from the outcome's signature.
 */
Result<std::string> captureOutcome(
    const harness::ProgramOutcome &out, const harness::BatchOptions &opts,
    const IncidentPolicy &policy,
    std::optional<harness::FaultSpec> fault = std::nullopt);

/**
 * Bundle every contained failure in a finished batch report, up to
 * `policy.maxIncidents`. Preserves the armed fault plan around the
 * reduction re-runs. Returns the bundle paths written.
 */
std::vector<std::string> processBatchIncidents(
    const harness::BatchReport &report, const harness::BatchOptions &opts,
    const IncidentPolicy &policy);

} // namespace incident
} // namespace memoria

#endif // MEMORIA_HARNESS_INCIDENT_HH
