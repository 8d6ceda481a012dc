/**
 * @file
 * Interpreter for the loop-nest IR.
 *
 * Executes a Program over real column-major arrays, streaming every
 * scalar memory access to an optional MemoryListener (typically a cache
 * simulator). The interpreter serves three purposes:
 *
 *  1. semantic validation — the test suite requires transformed
 *     programs to produce bit-identical array contents;
 *  2. cache-hit-rate measurement for the paper's Table 4;
 *  3. a simple cycle model (statement cost + miss penalty) standing in
 *     for the paper's wall-clock numbers in Tables 1 and 3.
 *
 * There is one execution engine, the bytecode tape (interp/tape.hh),
 * and one access path: accesses are buffered and delivered through
 * MemoryListener::consumeBatch. An independent recursive evaluator
 * lives in tests/reference_interp.hh as ground truth.
 */

#ifndef MEMORIA_SRC_INTERP_INTERP_HH
#define MEMORIA_SRC_INTERP_INTERP_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cachesim/cache.hh"
#include "cachesim/sweep.hh"
#include "check/diag.hh"
#include "ir/program.hh"

namespace memoria {

class Tape;

/** Execution counters. */
struct ExecStats
{
    uint64_t stmtsExecuted = 0;
    uint64_t memRefs = 0;
    uint64_t loopIterations = 0;
};

/** Crude latency model for simulated "performance" numbers. */
struct MachineModel
{
    double cyclesPerStmt = 1.0;
    double cyclesPerRef = 1.0;
    double missPenalty = 16.0;
};

/** Executes one program binding. */
class Interpreter
{
  public:
    explicit Interpreter(const Program &prog);
    ~Interpreter();

    /** Override parameter values by name before the first run, then
     *  lay the arrays out once for the whole binding and drop the
     *  compiled tape. An unknown name reports a Diag and binds
     *  nothing; so does a non-positive extent under the new binding.
     *  An empty list changes nothing. */
    Status setParams(
        const std::vector<std::pair<std::string_view, int64_t>> &values);

    /**
     * Re-seed the deterministic initial array contents. Only the data
     * changes: every array is marked for refill, while the layout
     * (extents, bases) and the compiled tape are kept. Legal after a
     * run, including one that faulted: it also resets ExecStats, the
     * loop variables and the fault context, so the next run observes
     * exactly what a fresh Interpreter bound to the same parameters
     * and seed would. The differential oracle binds each side once
     * per trial size and reruns it under every seed this way.
     */
    void setInitSeed(uint64_t seed);

    /**
     * Execute the whole program, delivering accesses to `listener` in
     * batches (MemoryListener::consumeBatch).
     *
     * Program-dependent faults — out-of-bounds subscripts, rank
     * mismatches, MOD by zero — stop execution and come back as a
     * Diag; they are properties of the *input*, not internal bugs, so
     * they must not terminate the process (docs/ROBUSTNESS.md).
     *
     * Listener contract, one rule: a program fault flushes the batch,
     * so after a Diag the listener has seen exactly stats().memRefs
     * accesses; a cancellation (harness::CancelledError from a budget
     * poll) propagates without flushing, so the listener's counters
     * are partial and callers must not read them.
     */
    Status run(MemoryListener *listener = nullptr);

    /** Raw data of one array (valid after construction). Contents are
     *  materialized lazily; the first read fills the buffer with the
     *  deterministic seeded initial values. */
    const std::vector<double> &arrayData(ArrayId a) const;

    /** Element count of one array under the current binding, without
     *  materializing its contents. */
    uint64_t arrayElems(ArrayId a) const;

    /** FNV-1a checksum over the bit patterns of every array, one
     *  64-bit word per element (high half folded into the low half
     *  before mixing). */
    uint64_t checksum() const;

    /** Checksum restricted to the first `count` arrays — lets callers
     *  compare programs that differ only by appended register
     *  temporaries (scalar replacement, unroll-and-jam). */
    uint64_t checksumFirstArrays(size_t count) const;

    const ExecStats &stats() const { return stats_; }

    /** Virtual base address of an array. */
    uint64_t arrayBase(ArrayId a) const { return bases_.at(a); }

    /** The compiled tape for the current binding (compiled lazily on
     *  first run, counted by `interp.tape_compiles`). Exposed for the
     *  disassembly golden test. */
    const Tape &compiledTape();

  private:
    friend class Tape;

    void allocate();
    void ensureArray(ArrayId a) const;
    void ensureReferenced() const;
    const int64_t *extentsOf(ArrayId a) const
    {
        return extentPool_.data() + extentOff_[a];
    }
    int rankOf(ArrayId a) const
    {
        return static_cast<int>(extentOff_[a + 1] - extentOff_[a]);
    }
    int64_t evalAffine(const AffineExpr &e) const;
    std::string loopContext() const;

    const Program &prog_;
    std::vector<int64_t> env_;            ///< VarId -> current value
    /**
     * Array contents, filled lazily (mutable: reads through the const
     * accessors materialize on demand). A verification pass touches a
     * handful of a program's arrays; eagerly hashing initial values
     * into every buffer on construction, after every setParams and
     * again after setInitSeed dominated the equivalence oracle.
     *
     * Invariant the compiled tape relies on: a buffer is resized only
     * when its array's extents change, and extents change only in
     * allocate(), which also drops the tape. A refill after
     * setInitSeed keeps the size, so the raw data pointers the tape
     * bound at compile time stay valid across reruns.
     */
    mutable std::vector<std::vector<double>> data_;
    mutable std::vector<uint8_t> filled_; ///< per-array fill flag
    std::vector<uint8_t> referenced_;     ///< arrays the body touches
    std::vector<uint64_t> bases_;
    /** Concrete extents, flattened: array `a` owns
     *  extentPool_[extentOff_[a] .. extentOff_[a+1]). Ranks are fixed
     *  by the declaration, so offsets are computed once. */
    std::vector<int64_t> extentPool_;
    std::vector<uint32_t> extentOff_;
    ExecStats stats_;
    uint64_t initSeed_ = 0;
    std::optional<Diag> allocError_;      ///< deferred allocation fault
    std::vector<VarId> loopStack_;        ///< active loops, outer first
    int curStmt_ = -1;                    ///< executing statement id
    bool ran_ = false;
    std::unique_ptr<Tape> tape_;          ///< lazily compiled binding
};

/** Result of one execution simulated against several caches at once. */
struct SweepResult
{
    ExecStats exec;
    /** Per-config counters, parallel to the `configs` argument. */
    std::vector<CacheStats> cache;
    /** Per-config modeled cycles, parallel to `configs`. */
    std::vector<double> cycles;
    uint64_t checksum = 0;
};

/**
 * Run a program once and simulate every configuration in `configs`
 * from that single interpreter pass (cachesim/sweep.hh). Counters are
 * identical to one-config runs per configuration; the interpreter —
 * the expensive part — executes once instead of N times. Panics on a
 * program fault; use tryRunWithCaches for untrusted programs.
 */
SweepResult runWithCaches(const Program &prog,
                          const std::vector<CacheConfig> &configs,
                          const MachineModel &machine = MachineModel{});

/** Checked variant: a faulting program reports a Diag instead. */
Result<SweepResult> tryRunWithCaches(
    const Program &prog, const std::vector<CacheConfig> &configs,
    const MachineModel &machine = MachineModel{});

/** Run without a cache, for semantics checks only. Panics on a
 *  program fault; use tryRunChecksum for untrusted programs. */
uint64_t runChecksum(const Program &prog);

/** Checked variant: a faulting program reports a Diag instead. */
Result<uint64_t> tryRunChecksum(const Program &prog);

} // namespace memoria

#endif // MEMORIA_SRC_INTERP_INTERP_HH
