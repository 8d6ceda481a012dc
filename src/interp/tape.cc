#include "interp/tape.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "harness/budget.hh"
#include "interp/interp.hh"
#include "support/logging.hh"

namespace memoria {

namespace {

/** Coefficient/stride ceiling for the linearized fast path. Keeping
 *  every factor below 2^20 bounds the strength-reduced affine away
 *  from int64 overflow (products <= 2^40, a handful of summands);
 *  anything wilder falls back to the guarded path, which evaluates
 *  and checks dimension by dimension. */
constexpr int64_t kLinLimit = int64_t(1) << 20;

struct NullEmitter
{
    void access(uint64_t, uint32_t, bool) {}
};

/** Accesses per batch handed to MemoryListener::consumeBatch. */
constexpr size_t kBatch = 4096;

/** Fills a fixed AccessRecord array and hands full batches to the
 *  listener: one store per access, one virtual call per kBatch. */
struct BufferEmitter
{
    AccessRecord *buf;
    MemoryListener *listener;
    size_t n = 0;

    void
    access(uint64_t addr, uint32_t size, bool isWrite)
    {
        buf[n] = {addr, size, isWrite};
        if (++n == kBatch) {
            listener->consumeBatch(buf, n);
            n = 0;
        }
    }
    void
    flush()
    {
        if (n) {
            listener->consumeBatch(buf, n);
            n = 0;
        }
    }
};

} // namespace

Tape::Tape(const Program &prog, const Interpreter &interp)
    : prog_(&prog), binding_(&interp)
{
    varIv_.assign(prog.vars.size(), Interval{});
    varKnown_.assign(prog.vars.size(), false);
    for (size_t v = 0; v < prog.vars.size(); ++v) {
        if (prog.vars[v].kind == VarKind::Param) {
            int64_t value = interp.env_[v];
            varIv_[v] = {value, value};
            varKnown_[v] = true;
        }
    }

    data_.reserve(interp.data_.size());
    for (const auto &buf : interp.data_)
        data_.push_back(const_cast<double *>(buf.data()));

    for (const NodePtr &n : prog.body)
        compileNode(*n);
    emit(Instr{}, 0, 0);  // Halt

    dstack_.resize(static_cast<size_t>(maxDepth_) + 1);
    istack_.resize(static_cast<size_t>(maxIDepth_) + 1);
    binding_ = nullptr;  // compile-only view
}

void
Tape::emit(Instr in, int dstackEffect, int istackEffect)
{
    code_.push_back(in);
    stmtOfPc_.push_back(compileStmt_);
    // Clamp at zero: instructions following a FaultOp inside the same
    // statement are dead code, and their pops would drive the model
    // negative.
    curDepth_ += dstackEffect;
    if (curDepth_ < 0)
        curDepth_ = 0;
    if (curDepth_ > maxDepth_)
        maxDepth_ = curDepth_;
    curIDepth_ += istackEffect;
    if (curIDepth_ < 0)
        curIDepth_ = 0;
    if (curIDepth_ > maxIDepth_)
        maxIDepth_ = curIDepth_;
}

void
Tape::emitFault(std::string code, std::string msg)
{
    faults_.push_back({std::move(code), std::move(msg)});
    Instr in;
    in.op = Op::FaultOp;
    in.a = static_cast<int32_t>(faults_.size() - 1);
    emit(in, 0, 0);
}

int32_t
Tape::addAffine(const AffineExpr &e)
{
    Aff a;
    a.firstTerm = static_cast<int32_t>(termVar_.size());
    a.termCount = static_cast<int32_t>(e.terms().size());
    a.constant = e.constant();
    for (const auto &[var, coeff] : e.terms()) {
        termVar_.push_back(var);
        termCoeff_.push_back(coeff);
    }
    affines_.push_back(a);
    return static_cast<int32_t>(affines_.size() - 1);
}

bool
Tape::affineInterval(const AffineExpr &e, Interval &out) const
{
    // 128-bit accumulation cannot overflow for any realistic term
    // count; the result is clamped back into int64.
    __int128 lo = e.constant();
    __int128 hi = lo;
    for (const auto &[var, coeff] : e.terms()) {
        if (static_cast<size_t>(var) >= varKnown_.size() ||
            !varKnown_[var])
            return false;
        const Interval &iv = varIv_[var];
        __int128 a = static_cast<__int128>(coeff) * iv.lo;
        __int128 b = static_cast<__int128>(coeff) * iv.hi;
        lo += a < b ? a : b;
        hi += a < b ? b : a;
    }
    constexpr __int128 kMax = INT64_MAX;
    constexpr __int128 kMin = INT64_MIN;
    out.lo = static_cast<int64_t>(lo < kMin ? kMin : (lo > kMax ? kMax : lo));
    out.hi = static_cast<int64_t>(hi < kMin ? kMin : (hi > kMax ? kMax : hi));
    return true;
}

void
Tape::compileNode(const Node &n)
{
    if (n.isStmt()) {
        compileStmt(n.stmt);
        return;
    }
    if (n.step == 0) {
        // Faults at execution time: a zero-step loop inside a
        // never-entered region must not fault.
        emitFault("interp.step", "loop over '" + prog_->varName(n.var) +
                                     "' has step 0");
        return;
    }

    int32_t loopId = static_cast<int32_t>(loops_.size());
    loops_.push_back({n.var, addAffine(n.lb), addAffine(n.ub), n.step, 0});

    size_t beginPc = code_.size();
    Instr begin;
    begin.op = Op::LoopBegin;
    begin.a = loopId;
    emit(begin, 0, 0);

    // Interval of the loop variable over every executed iteration:
    // for a positive step the values lie in [min(lb), max(ub)] (the
    // loop only runs when lb <= ub), mirrored for negative steps.
    Interval lbIv, ubIv, vi{};
    bool known = affineInterval(n.lb, lbIv) && affineInterval(n.ub, ubIv);
    if (known) {
        vi = n.step > 0 ? Interval{lbIv.lo, ubIv.hi}
                        : Interval{ubIv.lo, lbIv.hi};
        if (vi.lo > vi.hi)
            vi.hi = vi.lo;  // provably zero-trip; body is dead
    }
    Interval savedIv = varIv_[n.var];
    bool savedKnown = varKnown_[n.var];
    varIv_[n.var] = vi;
    varKnown_[n.var] = known;

    for (const NodePtr &kid : n.body)
        compileNode(*kid);

    varIv_[n.var] = savedIv;
    varKnown_[n.var] = savedKnown;

    Instr end;
    end.op = Op::LoopEnd;
    end.a = loopId;
    end.b = static_cast<int32_t>(beginPc) + 1;
    size_t endPc = code_.size();
    emit(end, 0, 0);
    code_[beginPc].b = static_cast<int32_t>(endPc);
}

void
Tape::compileStmt(const Statement &s)
{
    compileStmt_ = s.id;
    // Statements begin and end with empty stacks; resetting the model
    // here confines any dead-code imprecision to one statement.
    curDepth_ = 0;
    curIDepth_ = 0;
    compileValue(s.rhs);
    compileRef(s.write, /*isStore=*/true);
    compileStmt_ = -1;
}

void
Tape::compileValue(const ValuePtr &v)
{
    MEMORIA_ASSERT(v != nullptr, "null value in tape compile");
    switch (v->op) {
      case ValOp::Const: {
        Instr in;
        in.op = Op::PushConst;
        static_assert(sizeof(in.imm) == sizeof(v->constant));
        std::memcpy(&in.imm, &v->constant, sizeof(in.imm));
        emit(in, +1, 0);
        return;
      }
      case ValOp::Index: {
        Instr in;
        in.op = Op::PushIndex;
        in.a = addAffine(v->index);
        emit(in, +1, 0);
        return;
      }
      case ValOp::Load:
        compileRef(v->load, /*isStore=*/false);
        return;
      case ValOp::Neg:
      case ValOp::Sqrt: {
        MEMORIA_ASSERT(!v->kids.empty(), "value arity out of range");
        compileValue(v->kids[0]);
        Instr in;
        in.op = v->op == ValOp::Neg ? Op::Neg : Op::Sqrt;
        emit(in, 0, 0);
        return;
      }
      default: {
        MEMORIA_ASSERT(v->kids.size() == 2, "value arity out of range");
        compileValue(v->kids[0]);
        compileValue(v->kids[1]);
        Instr in;
        switch (v->op) {
          case ValOp::Add: in.op = Op::Add; break;
          case ValOp::Sub: in.op = Op::Sub; break;
          case ValOp::Mul: in.op = Op::Mul; break;
          case ValOp::Div: in.op = Op::Div; break;
          case ValOp::Min: in.op = Op::Min; break;
          case ValOp::Max: in.op = Op::Max; break;
          case ValOp::IMod: in.op = Op::IMod; break;
          default: panic("unhandled value op in tape compile");
        }
        emit(in, -1, 0);
        return;
      }
    }
}

void
Tape::compileRef(const ArrayRef &r, bool isStore)
{
    const Interpreter &I = *binding_;

    // Statically detectable faults compile to a FaultOp at the exact
    // execution point where the reference is reached (before any
    // subscript of it is evaluated).
    if (r.array < 0 || static_cast<size_t>(r.array) >= I.data_.size()) {
        emitFault("interp.array", "reference to out-of-range array id " +
                                      std::to_string(r.array));
        return;
    }
    const int64_t *ext = I.extentsOf(r.array);
    int rank = static_cast<int>(r.subs.size());
    if (rank != I.rankOf(r.array)) {
        emitFault("interp.rank",
                  "rank " + std::to_string(rank) + " reference to rank " +
                      std::to_string(I.rankOf(r.array)) + " array " +
                      prog_->arrayDecl(r.array).name);
        return;
    }

    const ArrayDecl &decl = prog_->arrayDecl(r.array);
    MEMORIA_ASSERT(decl.elemSize > 0 && decl.elemSize <= kMaxElemSize,
                   "element size out of tape range");
    uint8_t flags = decl.isRegister ? kFlagRegister : 0;
    uint16_t elem = static_cast<uint16_t>(decl.elemSize);
    int64_t base = static_cast<int64_t>(I.bases_[r.array]);

    // Per-dimension analysis: provable bounds and overflow-safe
    // magnitudes for the linearized fast path. Rank is tiny;
    // fixed-size scratch avoids allocation.
    constexpr int kMaxRank = 8;
    bool fastOk = rank <= kMaxRank;
    int64_t stride = 1;
    for (int k = 0; fastOk && k < rank; ++k) {
        const Subscript &sub = r.subs[k];
        if (!sub.isAffine()) {
            fastOk = false;
            break;
        }
        Interval iv;
        if (!(affineInterval(sub.affine, iv) && iv.lo >= 1 &&
              iv.hi <= ext[k]))
            fastOk = false;
        if (std::llabs(sub.affine.constant()) > kLinLimit)
            fastOk = false;
        for (const auto &[var, coeff] : sub.affine.terms())
            if (std::llabs(coeff) > kLinLimit)
                fastOk = false;
        if (stride > kLinLimit)
            fastOk = false;
        stride *= ext[k];
    }

    if (fastOk) {
        // Strength reduction: fold the column-major strides into the
        // subscript coefficients. index = sum_k (s_k - 1) * stride_k
        // collapses to one affine expression evaluated per access.
        // Accumulated directly into the tape pools in AffineExpr's
        // canonical form (terms sorted by variable, zero coefficients
        // dropped) so the disassembly reads the same either way.
        int64_t linConst = 0;
        int32_t linVar[kMaxRank * 4];
        int64_t linCoeff[kMaxRank * 4];
        int linTerms = 0;
        bool overflow = false;
        int64_t st = 1;
        for (int k = 0; k < rank; ++k) {
            const AffineExpr &A = r.subs[k].affine;
            linConst += (A.constant() - 1) * st;
            for (const auto &[var, coeff] : A.terms()) {
                int64_t c = coeff * st;
                int j = 0;
                while (j < linTerms && linVar[j] != var)
                    ++j;
                if (j < linTerms) {
                    linCoeff[j] += c;
                } else if (linTerms <
                           static_cast<int>(sizeof linVar /
                                            sizeof linVar[0])) {
                    linVar[linTerms] = var;
                    linCoeff[linTerms] = c;
                    ++linTerms;
                } else {
                    overflow = true;
                }
            }
            st *= ext[k];
        }
        if (!overflow) {
            // Canonicalize: sort by variable id, drop zero terms.
            for (int i = 1; i < linTerms; ++i)
                for (int j = i;
                     j > 0 && linVar[j - 1] > linVar[j]; --j) {
                    std::swap(linVar[j - 1], linVar[j]);
                    std::swap(linCoeff[j - 1], linCoeff[j]);
                }
            Aff a;
            a.firstTerm = static_cast<int32_t>(termVar_.size());
            a.constant = linConst;
            int32_t kept = 0;
            for (int i = 0; i < linTerms; ++i) {
                if (linCoeff[i] == 0)
                    continue;
                termVar_.push_back(linVar[i]);
                termCoeff_.push_back(linCoeff[i]);
                ++kept;
            }
            a.termCount = kept;
            affines_.push_back(a);

            ++fastRefs_;
            Instr in;
            in.op = isStore ? Op::StoreFast : Op::LoadFast;
            in.flags = flags;
            in.elem = elem;
            in.a = static_cast<int32_t>(affines_.size() - 1);
            in.b = r.array;
            in.imm = base;
            emit(in, isStore ? -1 : +1, 0);
            return;
        }
    }

    // Guarded path: dimension by dimension, in source order —
    // dimension k is bounds-checked before dimension k+1's (possibly
    // load-streaming) opaque subscript is evaluated.
    ++guardedRefs_;
    Instr open;
    open.op = Op::RefBegin;
    emit(open, 0, +1);
    stride = 1;
    for (int k = 0; k < rank; ++k) {
        const Subscript &sub = r.subs[k];
        Dim d;
        d.extent = ext[k];
        d.stride = stride;
        d.subIndex = k;
        d.array = r.array;
        Instr in;
        if (!sub.isAffine()) {
            compileValue(sub.opaque);
            d.check = true;
            in.op = Op::DimOpaque;
            dims_.push_back(d);
            in.a = static_cast<int32_t>(dims_.size() - 1);
            emit(in, -1, 0);
        } else {
            Interval iv;
            d.affine = addAffine(sub.affine);
            d.check = !(affineInterval(sub.affine, iv) && iv.lo >= 1 &&
                        iv.hi <= ext[k]);
            in.op = Op::DimAffine;
            dims_.push_back(d);
            in.a = static_cast<int32_t>(dims_.size() - 1);
            emit(in, 0, 0);
        }
        stride *= ext[k];
    }
    Instr close;
    close.op = isStore ? Op::StoreEnd : Op::LoadEnd;
    close.flags = flags;
    close.elem = elem;
    close.a = r.array;
    close.imm = base;
    emit(close, isStore ? -1 : +1, -1);
}

void
Tape::faultAt(Interpreter &interp, size_t pc, int lastStmt,
              const std::string &code, const std::string &msg) const
{
    int32_t s = stmtOfPc_[pc];
    interp.curStmt_ = s >= 0 ? s : lastStmt;
    throw interp_detail::Fault{
        Diag::error(code, msg + interp.loopContext())};
}

template <class Emitter>
void
Tape::execute(Interpreter &interp, Emitter &em)
{
    const Instr *code = code_.data();
    int64_t *env = interp.env_.data();
    double *const *data = data_.data();
    ExecStats &stats = interp.stats_;
    double *dstack = dstack_.data();
    int64_t *istack = istack_.data();
    size_t dsp = 0;
    size_t isp = 0;
    int lastStmt = -1;
    size_t pc = 0;

    for (;;) {
        const Instr &in = code[pc];
        switch (in.op) {
          case Op::LoopBegin: {
            Loop &L = loops_[in.a];
            interp.loopStack_.push_back(L.var);
            int64_t lb = evalA(L.lb, env);
            int64_t ub = evalA(L.ub, env);
            // 128-bit span: the trip count is exact even for extreme
            // bound pairs.
            __int128 span = L.step > 0
                                ? static_cast<__int128>(ub) - lb
                                : static_cast<__int128>(lb) - ub;
            int64_t mag = L.step > 0 ? L.step : -L.step;
            if (span < 0) {
                interp.loopStack_.pop_back();
                pc = static_cast<size_t>(in.b) + 1;
                continue;
            }
            // Unit steps, the common case, need no 128-bit division.
            L.remaining =
                static_cast<int64_t>(mag == 1 ? span : span / mag) + 1;
            if ((++stats.loopIterations & (kInterpPollStride - 1)) == 0)
                harness::chargeIterations(kInterpPollStride,
                                          "interp.loop");
            env[L.var] = lb;
            ++pc;
            continue;
          }
          case Op::LoopEnd: {
            Loop &L = loops_[in.a];
            if (--L.remaining > 0) {
                if ((++stats.loopIterations & (kInterpPollStride - 1)) ==
                    0)
                    harness::chargeIterations(kInterpPollStride,
                                              "interp.loop");
                env[L.var] += L.step;
                pc = static_cast<size_t>(in.b);
            } else {
                interp.loopStack_.pop_back();
                ++pc;
            }
            continue;
          }
          case Op::LoadFast: {
            int64_t idx = evalA(in.a, env);
            if (!(in.flags & kFlagRegister)) {
                ++stats.memRefs;
                em.access(static_cast<uint64_t>(in.imm) +
                              static_cast<uint64_t>(idx) * in.elem,
                          in.elem, false);
            }
            dstack[dsp++] = data[in.b][idx];
            ++pc;
            continue;
          }
          case Op::StoreFast: {
            int64_t idx = evalA(in.a, env);
            double value = dstack[--dsp];
            if (!(in.flags & kFlagRegister)) {
                ++stats.memRefs;
                em.access(static_cast<uint64_t>(in.imm) +
                              static_cast<uint64_t>(idx) * in.elem,
                          in.elem, true);
            }
            data[in.b][idx] = value;
            ++stats.stmtsExecuted;
            lastStmt = stmtOfPc_[pc];
            ++pc;
            continue;
          }
          case Op::PushConst: {
            double d;
            std::memcpy(&d, &in.imm, sizeof(d));
            dstack[dsp++] = d;
            ++pc;
            continue;
          }
          case Op::PushIndex:
            dstack[dsp++] = static_cast<double>(evalA(in.a, env));
            ++pc;
            continue;
          case Op::Add: {
            double b = dstack[--dsp];
            dstack[dsp - 1] = dstack[dsp - 1] + b;
            ++pc;
            continue;
          }
          case Op::Sub: {
            double b = dstack[--dsp];
            dstack[dsp - 1] = dstack[dsp - 1] - b;
            ++pc;
            continue;
          }
          case Op::Mul: {
            double b = dstack[--dsp];
            dstack[dsp - 1] = dstack[dsp - 1] * b;
            ++pc;
            continue;
          }
          case Op::Div: {
            double b = dstack[--dsp];
            dstack[dsp - 1] = dstack[dsp - 1] / b;
            ++pc;
            continue;
          }
          case Op::Neg:
            dstack[dsp - 1] = -dstack[dsp - 1];
            ++pc;
            continue;
          case Op::Sqrt:
            dstack[dsp - 1] = std::sqrt(dstack[dsp - 1]);
            ++pc;
            continue;
          case Op::Min: {
            double b = dstack[--dsp];
            dstack[dsp - 1] = std::min(dstack[dsp - 1], b);
            ++pc;
            continue;
          }
          case Op::Max: {
            double b = dstack[--dsp];
            dstack[dsp - 1] = std::max(dstack[dsp - 1], b);
            ++pc;
            continue;
          }
          case Op::IMod: {
            int64_t b = std::llround(dstack[--dsp]);
            int64_t a = std::llround(dstack[dsp - 1]);
            if (b == 0)
                faultAt(interp, pc, lastStmt, "interp.mod_zero",
                        "MOD by zero");
            int64_t m = a % b;
            if (m < 0)
                m += std::abs(b);
            dstack[dsp - 1] = static_cast<double>(m);
            ++pc;
            continue;
          }
          case Op::RefBegin:
            istack[isp++] = 0;
            ++pc;
            continue;
          case Op::DimAffine: {
            const Dim &d = dims_[in.a];
            int64_t s = evalA(d.affine, env);
            if (d.check && (s < 1 || s > d.extent))
                faultAt(interp, pc, lastStmt, "interp.oob",
                        "subscript " + std::to_string(d.subIndex + 1) +
                            " = " + std::to_string(s) +
                            " out of bounds 1.." +
                            std::to_string(d.extent) + " on array " +
                            prog_->arrayDecl(d.array).name);
            istack[isp - 1] += (s - 1) * d.stride;
            ++pc;
            continue;
          }
          case Op::DimOpaque: {
            const Dim &d = dims_[in.a];
            int64_t s = std::llround(dstack[--dsp]);
            if (s < 1 || s > d.extent)
                faultAt(interp, pc, lastStmt, "interp.oob",
                        "subscript " + std::to_string(d.subIndex + 1) +
                            " = " + std::to_string(s) +
                            " out of bounds 1.." +
                            std::to_string(d.extent) + " on array " +
                            prog_->arrayDecl(d.array).name);
            istack[isp - 1] += (s - 1) * d.stride;
            ++pc;
            continue;
          }
          case Op::LoadEnd: {
            int64_t idx = istack[--isp];
            if (!(in.flags & kFlagRegister)) {
                ++stats.memRefs;
                em.access(static_cast<uint64_t>(in.imm) +
                              static_cast<uint64_t>(idx) * in.elem,
                          in.elem, false);
            }
            dstack[dsp++] = data[in.a][idx];
            ++pc;
            continue;
          }
          case Op::StoreEnd: {
            int64_t idx = istack[--isp];
            double value = dstack[--dsp];
            if (!(in.flags & kFlagRegister)) {
                ++stats.memRefs;
                em.access(static_cast<uint64_t>(in.imm) +
                              static_cast<uint64_t>(idx) * in.elem,
                          in.elem, true);
            }
            data[in.a][idx] = value;
            ++stats.stmtsExecuted;
            lastStmt = stmtOfPc_[pc];
            ++pc;
            continue;
          }
          case Op::FaultOp: {
            const FaultRec &f = faults_[in.a];
            faultAt(interp, pc, lastStmt, f.code, f.msg);
          }
          case Op::Halt:
            return;
        }
        panic("unhandled tape op");
    }
}

void
Tape::run(Interpreter &interp, MemoryListener *listener)
{
    if (!listener) {
        NullEmitter em;
        execute(interp, em);
        return;
    }
    if (batchBuf_.size() < kBatch)
        batchBuf_.resize(kBatch);
    BufferEmitter em{batchBuf_.data(), listener};
    try {
        execute(interp, em);
    } catch (const interp_detail::Fault &) {
        // The listener sees the stream up to the fault. Cancellation,
        // by contrast, propagates without a flush.
        em.flush();
        throw;
    }
    em.flush();
}

std::string
Tape::disassemble() const
{
    auto nameOf = [this](VarId v) { return prog_->varName(v); };
    auto affine = [&](int32_t id) {
        const Aff &a = affines_.at(id);
        AffineExpr e(a.constant);
        for (int32_t i = 0; i < a.termCount; ++i)
            e = e + AffineExpr::makeVar(termVar_[a.firstTerm + i],
                                        termCoeff_[a.firstTerm + i]);
        return e.str(nameOf);
    };
    std::ostringstream os;
    os << "tape '" << prog_->name << "': " << code_.size()
       << " instrs, " << loops_.size() << " loops, " << fastRefs_
       << " fast refs, " << guardedRefs_ << " guarded refs\n";
    for (size_t pc = 0; pc < code_.size(); ++pc) {
        const Instr &in = code_[pc];
        os << std::setw(3) << pc << ": ";
        switch (in.op) {
          case Op::Halt:
            os << "halt";
            break;
          case Op::LoopBegin: {
            const Loop &L = loops_[in.a];
            os << "loop.begin " << nameOf(L.var) << " = <"
               << affine(L.lb) << "> .. <"
               << affine(L.ub) << "> step " << L.step
               << " end@" << in.b;
            break;
          }
          case Op::LoopEnd:
            os << "loop.end " << nameOf(loops_[in.a].var) << " body@"
               << in.b;
            break;
          case Op::FaultOp:
            os << "fault " << faults_[in.a].code << " \""
               << faults_[in.a].msg << "\"";
            break;
          case Op::PushConst: {
            double d;
            std::memcpy(&d, &in.imm, sizeof(d));
            os << "push.const " << d;
            break;
          }
          case Op::PushIndex:
            os << "push.index <" << affine(in.a) << ">";
            break;
          case Op::Add: os << "add"; break;
          case Op::Sub: os << "sub"; break;
          case Op::Mul: os << "mul"; break;
          case Op::Div: os << "div"; break;
          case Op::Neg: os << "neg"; break;
          case Op::Sqrt: os << "sqrt"; break;
          case Op::Min: os << "min"; break;
          case Op::Max: os << "max"; break;
          case Op::IMod: os << "imod"; break;
          case Op::RefBegin:
            os << "ref.begin";
            break;
          case Op::DimAffine: {
            const Dim &d = dims_[in.a];
            os << "dim.affine " << prog_->arrayDecl(d.array).name << "#"
               << d.subIndex + 1 << " <" << affine(d.affine)
               << "> stride " << d.stride
               << (d.check ? " check 1.." : " proven 1..") << d.extent;
            break;
          }
          case Op::DimOpaque: {
            const Dim &d = dims_[in.a];
            os << "dim.opaque " << prog_->arrayDecl(d.array).name << "#"
               << d.subIndex + 1 << " stride " << d.stride
               << " check 1.." << d.extent;
            break;
          }
          case Op::LoadEnd:
            os << "load.end " << prog_->arrayDecl(in.a).name;
            if (in.flags & kFlagRegister)
                os << " reg";
            break;
          case Op::StoreEnd:
            os << "store.end " << prog_->arrayDecl(in.a).name;
            if (in.flags & kFlagRegister)
                os << " reg";
            break;
          case Op::LoadFast:
            os << "load.fast " << prog_->arrayDecl(in.b).name << "[<"
               << affine(in.a) << ">]";
            if (in.flags & kFlagRegister)
                os << " reg";
            break;
          case Op::StoreFast:
            os << "store.fast " << prog_->arrayDecl(in.b).name << "[<"
               << affine(in.a) << ">]";
            if (in.flags & kFlagRegister)
                os << " reg";
            break;
        }
        os << "\n";
    }
    return os.str();
}

} // namespace memoria
