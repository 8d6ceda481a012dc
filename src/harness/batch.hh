/**
 * @file
 * The crash-isolating batch driver behind `memoria batch`.
 *
 * Runs the full pipeline — load/parse, validate, Compound (with
 * verification), cache simulation — over many programs on a small
 * worker pool, with per-program isolation: each program runs under a
 * fault-attribution `ProgramContext`, descends the degradation ladder
 * (harness/ladder.hh) under per-attempt budgets, and every failure mode
 * is contained to that program's report entry. One hostile input, one
 * injected fault, or one pathological nest cannot take down the batch.
 *
 * Per-program status:
 *
 *   ok               full pipeline completed on the top rung
 *   degraded         a lower rung completed (report says which)
 *   diag             the *input* is bad (parse/validate/execution Diag);
 *                    no rung can fix it, so the ladder is not descended
 *   timeout          even the identity rung exceeded its budget
 *   panic-contained  an unexpected exception escaped the pipeline and
 *                    was caught at the isolation boundary
 *
 * The report renders as one JSON object (docs/ROBUSTNESS.md describes
 * the schema) and feeds the obs stats registry (`batch.*` counters).
 */

#ifndef MEMORIA_HARNESS_BATCH_HH
#define MEMORIA_HARNESS_BATCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cachesim/cache.hh"
#include "check/diag.hh"
#include "harness/ladder.hh"
#include "ir/program.hh"
#include "support/trace.hh"

namespace memoria {
namespace harness {

/** Terminal state of one program in the batch. */
enum class BatchStatus
{
    Ok,
    Degraded,
    Diag,
    Timeout,
    PanicContained,
};

/** Printable name ("ok", "degraded", "diag", "timeout",
 *  "panic-contained"). */
const char *batchStatusName(BatchStatus s);

/** Inverse of batchStatusName; nullopt for any other string. */
std::optional<BatchStatus> batchStatusFromName(const std::string &name);

/**
 * One unit of work. `load` runs inside the program's isolation
 * boundary, so a throwing or Diag-reporting loader (a file that fails
 * to parse, say) is contained like any other per-program failure.
 */
struct BatchInput
{
    std::string name;
    std::function<Result<Program>()> load;
};

/** Knobs for one batch run. */
struct BatchOptions
{
    /** Per-attempt limits (fresh deadline per ladder rung). */
    Budget budget;

    /** Worker threads. */
    int jobs = 1;

    /** Simulate survivors and report warm hit rates. Part of each
     *  ladder attempt, so a faulting or overlong simulation also
     *  degrades/contains. */
    bool simulate = true;

    /**
     * Cache configurations simulated per survivor. All configurations
     * are fed from **one** interpreter pass per program version
     * (cachesim/sweep.hh), so adding a second geometry costs only the
     * cache model, not a second execution. The first entry is the
     * primary: its counters populate the legacy scalar fields of
     * ProgramOutcome and the top-level `sim` JSON object.
     */
    std::vector<CacheConfig> cacheConfigs{CacheConfig::i860()};

    /** Ladder backoff after faults (see LadderOptions). */
    int backoffBaseMs = 5;
    int backoffCapMs = 40;

    /**
     * First rung to attempt. The serve layer lowers this when a
     * circuit breaker on the optimize stage is open, so degraded
     * service skips the configurations that have been failing.
     */
    Rung startRung = Rung::FullCompound;

    /**
     * Capture the pretty-printed source of the loaded program into
     * `ProgramOutcome::source`. Incident bundling needs the original
     * text to minimize against; off by default because sweeps over
     * hundreds of programs do not.
     */
    bool captureSource = false;

    ModelParams params;
};

/** Per-nest outcome on the rung that completed. */
struct NestOutcome
{
    int depth = 0;
    std::string strategy;  ///< nestStrategyName of the final attempt
    bool rolledBack = false;
};

/** Everything the batch learned about one program. */
struct ProgramOutcome
{
    std::string name;
    BatchStatus status = BatchStatus::Ok;

    /** Rung that completed (meaningful for Ok/Degraded). */
    Rung rung = Rung::FullCompound;

    int attempts = 0;
    std::vector<AttemptFailure> failures;

    /** The diagnostic, for status Diag / PanicContained. */
    std::string diag;

    double timeMs = 0.0;
    uint64_t iterations = 0;     ///< interpreter iterations, all attempts
    uint64_t maxIrNodes = 0;     ///< largest node count seen
    int64_t backoffMs = 0;

    /**
     * Per-stage wall time across all attempts (microseconds), from the
     * thread-local `obs::stageTimes()` accumulator. The stages are
     * disjoint (verify time is subtracted from optimize even though
     * the oracle runs nested inside Compound), so the sum is <= the
     * program's total wall time; the remainder is ladder/bookkeeping
     * overhead. Serve stamps these into every response as `timings`.
     */
    using StageTimings = obs::StageTimes;
    StageTimings timings;

    /** Fault-site hits attributed to this program. */
    std::map<std::string, uint64_t> faultHits;

    /** Pretty-printed source of the loaded program (only when
     *  BatchOptions::captureSource; empty when the load itself failed). */
    std::string source;

    /** Structure of the completed attempt (empty on identity rung). */
    int loops = 0;
    std::vector<NestOutcome> nests;

    /** Per-configuration simulation result (transformed program;
     *  hit_warm_* compare original vs transformed). */
    struct SimOutcome
    {
        std::string cache;  ///< CacheConfig::name
        uint64_t accesses = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        double hitWarmOrig = 0.0;
        double hitWarmFinal = 0.0;
    };

    /** Simulation results (valid when simulated). The scalar fields
     *  mirror sims.front() — the primary configuration — for report
     *  stability; `sims` carries every swept configuration. */
    bool simulated = false;
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    double hitWarmOrig = 0.0;
    double hitWarmFinal = 0.0;
    std::vector<SimOutcome> sims;

    /** Contained failure of any kind (sweeps count these). */
    bool
    contained() const
    {
        return status != BatchStatus::Ok || !failures.empty();
    }
};

/** The whole batch. */
struct BatchReport
{
    std::vector<ProgramOutcome> programs;
    double totalMs = 0.0;

    int countWithStatus(BatchStatus s) const;

    /** Programs with a contained failure or degradation. */
    int containedCount() const;

    /** Everything finished on the top rung. */
    bool
    allOk() const
    {
        return containedCount() == 0;
    }

    /** Render the whole report as one JSON object. */
    std::string toJson() const;
};

/** The built-in kernels, by name (matmul-ijk, cholesky, adi, ...). */
std::vector<BatchInput> kernelInputs(int64_t n = 24);

/** The 35-program synthetic corpus. */
std::vector<BatchInput> corpusInputs(int64_t extent = 16);

/** A `.mem` source file; parse failures surface as per-program Diags. */
BatchInput fileInput(const std::string &path);

/** The name that selects corpus program `name`: the name itself, or
 *  "corpus/<name>" when a kernel of the same name shadows it. */
std::string corpusInputName(const std::string &name);

/**
 * One program by name: a kernel (built at extent `kernelN`), a corpus
 * program by its corpusInputName (at `corpusExtent`, raised to 8 with a
 * warning), or else the `.mem` file at that path. Loading stays lazy.
 */
BatchInput programInput(const std::string &name, int64_t kernelN = 24,
                        int64_t corpusExtent = 16);

/** Every `.mem` file under `dir`, sorted; empty when none. */
std::vector<BatchInput> directoryInputs(const std::string &dir);

/** In-memory `.mem` source under an explicit name; parse failures
 *  surface as per-program Diags like fileInput's. */
BatchInput namedInput(std::string name, std::string source);

/**
 * Run one input through the full isolation boundary — ProgramContext,
 * budget-scoped load/validate, the degradation ladder — and never
 * throw. This is the unit `runBatch` schedules onto its pool; the
 * serve layer and the delta-debugging reducer call it directly for
 * single requests and candidate re-runs.
 */
ProgramOutcome runIsolated(const BatchInput &in, const BatchOptions &opts);

/** Run the batch; never throws for per-program failures. */
BatchReport runBatch(const std::vector<BatchInput> &inputs,
                     const BatchOptions &opts);

} // namespace harness
} // namespace memoria

#endif // MEMORIA_HARNESS_BATCH_HH
