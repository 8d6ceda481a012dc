/**
 * @file
 * Flat bytecode tape: the interpreter's execution engine.
 *
 * Walking the pointer-based IR directly spends most of its time
 * chasing shared_ptr value spines and re-discovering per-reference
 * facts — array rank, extents, strides, bounds — on every single
 * access. The tape compiles one program binding (program + concrete
 * parameter values + array layout) into a flat instruction vector
 * once, hoisting everything compile-time-knowable out of the loop:
 *
 *  - **loop headers** carry their variable, bound expressions and step;
 *    the trip count is computed once per loop entry, so the back edge
 *    is a decrement, an env bump and a jump;
 *  - **affine subscripts are strength-reduced**: a multi-dimensional
 *    all-affine reference folds its column-major strides into the
 *    subscript coefficients, collapsing to ONE affine expression whose
 *    evaluation is `constant + sum(coeff * env[var])`;
 *  - **bounds checks are proven away** where interval analysis over
 *    the loop-variable ranges shows every subscript in bounds; such
 *    references execute as a single fast load/store op. References it
 *    cannot prove (or with opaque subscripts) fall back to guarded
 *    per-dimension ops that check each subscript in source order;
 *  - **accesses stream straight into the batch buffer**: execution is
 *    templated over an emitter policy, so `run` appends to an
 *    AccessRecord array and flushes whole batches to the listener's
 *    consumeBatch — no virtual call per access, no allocation.
 *
 * Evaluation order is defined: statement right-hand side first, then
 * the written reference's subscripts; binary operands left before
 * right; subscripts first dimension first. tests/reference_interp.hh
 * is an independent recursive evaluator with the same rules, and
 * test_interp_reference requires identical ExecStats, access streams
 * (through the cache counters), checksums and Diags on the kernels,
 * the corpus and fuzz programs.
 */

#ifndef MEMORIA_SRC_INTERP_TAPE_HH
#define MEMORIA_SRC_INTERP_TAPE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cachesim/cache.hh"
#include "check/diag.hh"
#include "interp/arena.hh"
#include "ir/program.hh"

namespace memoria {

class Interpreter;

namespace interp_detail {

/** Internal unwind for program-dependent faults; caught by
 *  Interpreter::run and converted to a Diag. */
struct Fault
{
    Diag diag;
};

} // namespace interp_detail

/** Budget poll cadence of the interpreter inner loop, in iterations; a
 *  power of two so the hot check is one AND plus a branch. */
constexpr uint64_t kInterpPollStride = 4096;

/**
 * One compiled program binding. Valid for the Interpreter's current
 * allocation (extents, bases, parameter values and data buffers); the
 * interpreter recompiles lazily after setParam/setInitSeed.
 */
class Tape
{
  public:
    /** Compile `prog` against the interpreter's current binding. */
    Tape(const Program &prog, const Interpreter &interp);

    /** Execute, streaming accesses to `listener` (null for none) in
     *  batches. The trailing partial batch is flushed even when a
     *  program fault unwinds; cooperative cancellation propagates
     *  without a flush. Throws interp_detail::Fault on program
     *  faults. */
    void run(Interpreter &interp, MemoryListener *listener);

    /** Human-readable listing of the whole tape (golden-tested). */
    std::string disassemble() const;

    /** Number of references compiled to unguarded fast ops / to
     *  guarded per-dimension sequences (for tests and tracing). */
    int fastRefs() const { return fastRefs_; }
    int guardedRefs() const { return guardedRefs_; }

  private:
    enum class Op : uint8_t
    {
        Halt,
        LoopBegin,  ///< a=loop id, b=pc of matching LoopEnd
        LoopEnd,    ///< a=loop id, b=pc of first body instruction
        FaultOp,    ///< a=fault record (statically known fault)
        PushConst,  ///< imm=bit pattern of the double
        PushIndex,  ///< a=affine id
        Add, Sub, Mul, Div, Neg, Sqrt, Min, Max, IMod,
        RefBegin,   ///< open a guarded reference (index accumulator)
        DimAffine,  ///< a=dim record; affine subscript dimension
        DimOpaque,  ///< a=dim record; subscript value popped from stack
        LoadEnd,    ///< a=array id; finish guarded load
        StoreEnd,   ///< a=array id; finish guarded store
        LoadFast,   ///< a=linearized affine id, b=array id
        StoreFast,  ///< a=linearized affine id, b=array id
    };

    /** Register-array flag: no memory traffic, no access stream. */
    static constexpr uint8_t kFlagRegister = 1;

    struct Instr
    {
        Op op = Op::Halt;
        uint8_t flags = 0;
        uint16_t elem = 0;  ///< element size in bytes (loads/stores)
        int32_t a = 0;
        int32_t b = 0;
        int64_t imm = 0;    ///< base address / const bits / step
    };

    /** Affine pool entry; terms in termVar_/termCoeff_ (SoA). */
    struct Aff
    {
        int32_t firstTerm = 0;
        int32_t termCount = 0;
        int64_t constant = 0;
    };

    struct Loop
    {
        VarId var = kNoVar;
        int32_t lb = 0;        ///< affine id
        int32_t ub = 0;        ///< affine id
        int64_t step = 1;
        int64_t remaining = 0; ///< runtime trip counter
    };

    /** One guarded subscript dimension. */
    struct Dim
    {
        int32_t affine = kNoArena; ///< kNoArena for opaque subscripts
        int64_t extent = 0;
        int64_t stride = 1;
        int32_t subIndex = 0;      ///< 0-based dimension (messages)
        ArrayId array = -1;
        bool check = true;         ///< false when proven in bounds
    };

    /** Statically known fault, thrown when (and only when) reached. */
    struct FaultRec
    {
        std::string code;
        std::string msg;
    };

    /** Inclusive integer interval for the bounds prover. */
    struct Interval
    {
        int64_t lo = 0;
        int64_t hi = 0;
    };

    // --- compilation ---
    void compileNode(const ProgramArena &arena, ArenaId nodeId);
    void compileStmt(const ProgramArena &arena, ArenaId stmtId);
    void compileValue(const ProgramArena &arena, ArenaId valId);
    void compileRef(const ProgramArena &arena, ArenaId refId,
                    bool isStore);
    void emit(Instr in, int dstackEffect, int istackEffect);
    void emitFault(std::string code, std::string msg);
    /** Copy arena affine `id` into the tape pools (no AffineExpr
     *  reconstruction — compile cost matters for tiny oracle runs). */
    int32_t addAffine(const ProgramArena &arena, ArenaId id);
    /** Interval of arena affine `id` over the current loop-variable
     *  ranges; false when any variable is unbounded. */
    bool affineInterval(const ProgramArena &arena, ArenaId id,
                        Interval &out) const;

    // --- execution ---
    template <class Emitter> void execute(Interpreter &interp,
                                          Emitter &emitter);
    int64_t
    evalA(int32_t id, const int64_t *env) const
    {
        const Aff &a = affines_[id];
        int64_t r = a.constant;
        const int32_t *v = termVar_.data() + a.firstTerm;
        const int64_t *c = termCoeff_.data() + a.firstTerm;
        for (int32_t i = 0; i < a.termCount; ++i)
            r += c[i] * env[v[i]];
        return r;
    }
    [[noreturn]] void faultAt(Interpreter &interp, size_t pc,
                              int lastStmt, const std::string &code,
                              const std::string &msg) const;

    /** Reconstructed AffineExpr for disassembly. */
    AffineExpr affineExpr(int32_t id) const;

    const Program *prog_;

    /** Compile-time view of the interpreter's binding (extents, bases,
     *  parameter values); cleared once compilation finishes. */
    const Interpreter *binding_ = nullptr;

    std::vector<Instr> code_;
    std::vector<int32_t> stmtOfPc_;  ///< statement id per pc, or -1
    std::vector<Aff> affines_;
    std::vector<int32_t> termVar_;
    std::vector<int64_t> termCoeff_;
    std::vector<Loop> loops_;
    std::vector<Dim> dims_;
    std::vector<FaultRec> faults_;

    /** Per-array data pointers, bound at compile time (the tape is
     *  invalidated whenever the interpreter reallocates). */
    std::vector<double *> data_;

    // Evaluation scratch, sized to the compile-time maxima.
    std::vector<double> dstack_;
    std::vector<int64_t> istack_;
    std::vector<AccessRecord> batchBuf_;  ///< lazily sized 4096

    // Compile state.
    int curDepth_ = 0, maxDepth_ = 0;
    int curIDepth_ = 0, maxIDepth_ = 0;
    int32_t compileStmt_ = -1;
    std::vector<Interval> varIv_;
    std::vector<bool> varKnown_;
    int fastRefs_ = 0;
    int guardedRefs_ = 0;
};

} // namespace memoria

#endif // MEMORIA_SRC_INTERP_TAPE_HH
