/**
 * @file
 * The end-to-end Memoria driver.
 *
 * Mirrors the paper's experimental pipeline: take a program, run the
 * Compound transformation, and collect what Section 5 reports —
 * per-program memory-order statistics (Table 2), simulated cache hit
 * rates for the optimized nests and the whole program on the two cache
 * configurations (Table 4) and simulated performance (Tables 1/3).
 * The data-access properties of Table 5 are an evaluation instrument,
 * not a pipeline output: callers that want them apply
 * programAccessStats to the original, the transformed and the
 * idealProgram versions. Likewise Table 4's optimized procedures:
 * optimizedProcedures derives them from a result when it is simulated.
 */

#ifndef MEMORIA_DRIVER_MEMORIA_HH
#define MEMORIA_DRIVER_MEMORIA_HH

#include <string>
#include <vector>

#include "interp/interp.hh"
#include "model/access.hh"
#include "transform/compound.hh"

namespace memoria {

/** Table 2 row plus the supporting detail. */
struct ProgramReport
{
    std::string name;

    int loops = 0;
    int nests = 0;

    // Memory order for whole nests (percent numerators).
    int nestsOrig = 0;  ///< originally in memory order
    int nestsPerm = 0;  ///< transformed into memory order
    int nestsFail = 0;  ///< still not in memory order

    // Memory order for the inner loop only.
    int innerOrig = 0;
    int innerPerm = 0;
    int innerFail = 0;

    // Failure breakdown (Section 5.2).
    int failDeps = 0;
    int failBounds = 0;

    FuseStats fusion;
    int distributions = 0;
    int resultingNests = 0;

    /** Transformations undone by the verification guard (per-nest
     *  rollbacks plus fusion-pass rollbacks); 0 on a healthy run. */
    int failVerify = 0;

    /** Average original/final and original/ideal LoopCost ratios,
     *  evaluated at the given symbolic size. */
    double ratioFinal = 1.0;
    double ratioIdeal = 1.0;
    /** Nesting-depth-weighted variants (Table 5). */
    double ratioFinalWt = 1.0;
    double ratioIdealWt = 1.0;
};

/** Result of optimizing one program. */
struct OptimizedProgram
{
    Program original;
    Program transformed;

    CompoundResult compound;
    ProgramReport report;
};

/** Knobs for one pipeline run. */
struct PipelineOptions
{
    CompoundOptions compound;

    /**
     * Run Compound at all. False is the degradation ladder's identity
     * rung: the "transformed" program is a verbatim copy, so every
     * downstream consumer (simulation, reporting) still works.
     */
    bool transform = true;
};

/** Run the full pipeline on one program. */
OptimizedProgram optimizeProgram(const Program &input,
                                 const ModelParams &params,
                                 const PipelineOptions &opts = {});

/** The "optimized procedures" of Table 4: sub-programs holding only
 *  the top-level nests Compound changed, before and after. */
struct OptimizedProcedures
{
    Program original;
    Program transformed;

    /** Whether Compound changed any nest. */
    bool
    any() const
    {
        return !original.body.empty();
    }
};

/** Map the changed nests of `opt` (Table 4 simulation builds these;
 *  the pipeline itself does not). */
OptimizedProcedures optimizedProcedures(const OptimizedProgram &opt);

/** Simulated hit rates, cold misses excluded (Table 4). */
struct HitRates
{
    double optOrig = 100.0;
    double optFinal = 100.0;
    double wholeOrig = 100.0;
    double wholeFinal = 100.0;
};

/** Simulated performance (Tables 1 and 3). */
struct Performance
{
    double origCycles = 0.0;
    double finalCycles = 0.0;

    double
    speedup() const
    {
        return finalCycles > 0.0 ? origCycles / finalCycles : 1.0;
    }
};

/**
 * Simulate one optimized program against several cache configurations
 * (Table 4). Each program version — whole original, whole transformed,
 * and the optimized procedures when any nest changed — is interpreted
 * **once** (interp::tryRunWithCaches) and its access stream feeds every
 * configuration in lockstep. Returns one HitRates per configuration, in
 * order. When `perf` is given it receives each configuration's cycles
 * from the same whole-program runs. A program fault comes back as a
 * Diag.
 */
Result<std::vector<HitRates>> simulateHitRates(
    const OptimizedProgram &opt, const std::vector<CacheConfig> &configs,
    std::vector<Performance> *perf = nullptr);

/** Simulated cycles per configuration (Tables 1 and 3): the two
 *  whole-program runs of simulateHitRates, without the optimized
 *  procedures. A program fault comes back as a Diag. */
Result<std::vector<Performance>> simulatePerformance(
    const OptimizedProgram &opt, const std::vector<CacheConfig> &configs);

/** The "ideal" version of Section 5.2 (Table 5): every nest forced
 *  into memory order, legality ignored. */
Program idealProgram(const Program &input, const ModelParams &params);

/** Access statistics of a whole program (every depth>=2 nest). */
AccessStats programAccessStats(Program &prog, const ModelParams &params);

} // namespace memoria

#endif // MEMORIA_DRIVER_MEMORIA_HH
