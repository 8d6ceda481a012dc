#include "interp/interp.hh"

#include <algorithm>
#include <cstring>

#include "harness/fault.hh"
#include "interp/tape.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace memoria {

namespace {

harness::FaultSite gInterpFault("interp.run", /*supportsDiag=*/true);

/** Deterministic small integer-valued initial data. Using integers in a
 *  narrow range keeps floating-point arithmetic exact, so reordered
 *  evaluation in transformed programs cannot mask (or fake) semantic
 *  differences. The seed selects one of many such initializations for
 *  differential testing; seed 0 reproduces the historical contents. */
double
initialValue(ArrayId a, uint64_t index, uint64_t seed)
{
    uint64_t h = (static_cast<uint64_t>(a) + 1) * 0x9e3779b97f4a7c15ULL;
    h ^= (index + 1) * 0xbf58476d1ce4e5b9ULL;
    h ^= seed * 0x94d049bb133111ebULL;
    h ^= h >> 29;
    return static_cast<double>(1 + (h % 7));
}

constexpr uint64_t kBaseAddress = 0x100000;

/** Mark every array id a statement tree references (writes, loads,
 *  and loads inside opaque subscripts). Shared Value spines may be
 *  visited more than once; the walk is idempotent and the IR is small
 *  next to the data it would otherwise force us to initialize. */
void
markRefArrays(const ArrayRef &ref, std::vector<uint8_t> &mark);

void
markValueArrays(const ValuePtr &v, std::vector<uint8_t> &mark)
{
    if (!v)
        return;
    if (v->op == ValOp::Load)
        markRefArrays(v->load, mark);
    for (const ValuePtr &kid : v->kids)
        markValueArrays(kid, mark);
}

void
markRefArrays(const ArrayRef &ref, std::vector<uint8_t> &mark)
{
    if (ref.array >= 0 && static_cast<size_t>(ref.array) < mark.size())
        mark[ref.array] = 1;
    for (const Subscript &s : ref.subs)
        if (!s.isAffine())
            markValueArrays(s.opaque, mark);
}

void
markNodeArrays(const Node &n, std::vector<uint8_t> &mark)
{
    if (n.isStmt()) {
        markRefArrays(n.stmt.write, mark);
        markValueArrays(n.stmt.rhs, mark);
        return;
    }
    for (const NodePtr &kid : n.body)
        markNodeArrays(*kid, mark);
}

} // namespace

Interpreter::Interpreter(const Program &prog)
    : prog_(prog)
{
    env_.assign(prog_.vars.size(), 0);
    for (size_t v = 0; v < prog_.vars.size(); ++v)
        if (prog_.vars[v].kind == VarKind::Param)
            env_[v] = prog_.vars[v].paramValue;

    const size_t n = prog_.arrays.size();
    data_.resize(n);
    filled_.assign(n, 0);
    bases_.assign(n, 0);
    extentOff_.resize(n + 1);
    uint32_t off = 0;
    for (size_t a = 0; a < n; ++a) {
        extentOff_[a] = off;
        off += static_cast<uint32_t>(prog_.arrays[a].extents.size());
    }
    extentOff_[n] = off;
    extentPool_.assign(off, 0);

    referenced_.assign(n, 0);
    for (const NodePtr &node : prog_.body)
        markNodeArrays(*node, referenced_);

    allocate();
}

Interpreter::~Interpreter() = default;

const Tape &
Interpreter::compiledTape()
{
    MEMORIA_ASSERT(!allocError_, "compiledTape with allocation error");
    if (!tape_) {
        ensureReferenced();  // the tape binds raw data pointers
        tape_ = std::make_unique<Tape>(prog_, *this);
    }
    return *tape_;
}

Status
Interpreter::setParam(const std::string &name, int64_t value)
{
    MEMORIA_ASSERT(!ran_, "setParam after run");
    for (size_t v = 0; v < prog_.vars.size(); ++v) {
        if (prog_.vars[v].kind == VarKind::Param &&
            prog_.vars[v].name == name) {
            env_[v] = value;
            allocate();
            if (allocError_)
                return Status::err(*allocError_);
            return Status{};
        }
    }
    return Status::err(
        Diag::error("interp.param", "unknown parameter '" + name + "'"));
}

void
Interpreter::setInitSeed(uint64_t seed)
{
    MEMORIA_ASSERT(!ran_, "setInitSeed after run");
    initSeed_ = seed;
    std::fill(filled_.begin(), filled_.end(), 0);
    allocate();
}

/**
 * Recompute the binding: concrete extents, virtual base addresses and
 * the deferred allocation error. Array contents are NOT filled here —
 * they materialize lazily (ensureArray) so the repeated rebinding the
 * equivalence oracle performs (construct, setParam per parameter,
 * setInitSeed) costs extent arithmetic, not a full data refill each
 * time. An array whose extents are unchanged keeps its filled data.
 */
void
Interpreter::allocate()
{
    allocError_.reset();
    tape_.reset();  // the compiled binding is stale
    uint64_t next = kBaseAddress;
    for (size_t a = 0; a < prog_.arrays.size(); ++a) {
        const ArrayDecl &decl = prog_.arrays[a];
        int64_t *ext = extentPool_.data() + extentOff_[a];
        uint64_t elems = 1;
        bool changed = false;
        for (size_t k = 0; k < decl.extents.size(); ++k) {
            int64_t x = evalAffine(decl.extents[k]);
            if (x <= 0) {
                allocError_ = Diag::error(
                    "interp.extent", "non-positive extent " +
                                         std::to_string(x) +
                                         " for array " + decl.name);
                std::fill(filled_.begin(), filled_.end(), 0);
                return;
            }
            if (ext[k] != x) {
                ext[k] = x;
                changed = true;
            }
            elems *= static_cast<uint64_t>(x);
        }
        if (changed)
            filled_[a] = 0;
        bases_[a] = next;
        next += elems * decl.elemSize;
    }
}

uint64_t
Interpreter::arrayElems(ArrayId a) const
{
    MEMORIA_ASSERT(a >= 0 && static_cast<size_t>(a) < data_.size(),
                   "arrayElems out of range");
    const int64_t *ext = extentsOf(a);
    uint64_t elems = 1;
    for (int k = 0; k < rankOf(a); ++k)
        elems *= static_cast<uint64_t>(ext[k]);
    return elems;
}

void
Interpreter::ensureArray(ArrayId a) const
{
    if (filled_[a])
        return;
    MEMORIA_ASSERT(!allocError_, "ensureArray with allocation error");
    uint64_t elems = arrayElems(a);
    std::vector<double> &buf = data_[a];
    buf.resize(elems);
    for (uint64_t i = 0; i < elems; ++i)
        buf[i] = initialValue(a, i, initSeed_);
    filled_[a] = 1;
}

void
Interpreter::ensureReferenced() const
{
    for (size_t a = 0; a < referenced_.size(); ++a)
        if (referenced_[a])
            ensureArray(static_cast<ArrayId>(a));
}

/** The enclosing-loop iteration snapshot, e.g. " in DO I=3, DO J=5". */
std::string
Interpreter::loopContext() const
{
    std::string s;
    for (VarId v : loopStack_)
        s += (s.empty() ? " in DO " : ", DO ") + prog_.varName(v) + "=" +
             std::to_string(env_[v]);
    if (curStmt_ >= 0)
        s += " (statement " + std::to_string(curStmt_) + ")";
    return s;
}

int64_t
Interpreter::evalAffine(const AffineExpr &e) const
{
    return e.eval([this](VarId v) { return env_[v]; });
}

int64_t
Interpreter::paramValue(VarId v) const
{
    MEMORIA_ASSERT(prog_.varInfo(v).kind == VarKind::Param,
                   "paramValue of a loop variable");
    return env_[v];
}

Status
Interpreter::run(MemoryListener *listener)
{
    obs::TraceScope span("interp", "run");
    span.arg("program", prog_.name);

    ran_ = true;
    if (std::optional<Diag> injected = gInterpFault.fire()) {
        ++obs::counter("interp.faults");
        return Status::err(*injected);
    }
    if (allocError_) {
        ++obs::counter("interp.faults");
        return Status::err(*allocError_);
    }

    ensureReferenced();

    if (!tape_)
        tape_ = std::make_unique<Tape>(prog_, *this);
    try {
        tape_->run(*this, listener);
    } catch (const interp_detail::Fault &f) {
        ++obs::counter("interp.faults");
        if (span.active())
            span.arg("fault", f.diag.str());
        return Status::err(f.diag);
    }

    // Publish aggregates once per run: the per-iteration path stays a
    // plain member increment.
    static obs::Counter &cRuns = obs::counter("interp.runs");
    static obs::Counter &cIters = obs::counter("interp.loop_iterations");
    static obs::Counter &cStmts = obs::counter("interp.stmts_executed");
    static obs::Counter &cRefs = obs::counter("interp.mem_refs");
    ++cRuns;
    cIters += stats_.loopIterations;
    cStmts += stats_.stmtsExecuted;
    cRefs += stats_.memRefs;

    if (span.active()) {
        span.arg("loop_iterations", stats_.loopIterations);
        span.arg("stmts_executed", stats_.stmtsExecuted);
        span.arg("mem_refs", stats_.memRefs);
    }
    return Status{};
}

const std::vector<double> &
Interpreter::arrayData(ArrayId a) const
{
    MEMORIA_ASSERT(a >= 0 && static_cast<size_t>(a) < data_.size(),
                   "arrayData out of range");
    ensureArray(a);
    return data_[a];
}

uint64_t
Interpreter::checksum() const
{
    return checksumFirstArrays(data_.size());
}

uint64_t
Interpreter::checksumFirstArrays(size_t count) const
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t a = 0; a < count && a < data_.size(); ++a) {
        ensureArray(static_cast<ArrayId>(a));
        const auto &arr = data_[a];
        for (double d : arr) {
            uint64_t bits;
            static_assert(sizeof(bits) == sizeof(d));
            std::memcpy(&bits, &d, sizeof(bits));
            for (int b = 0; b < 8; ++b) {
                h ^= (bits >> (8 * b)) & 0xff;
                h *= 0x100000001b3ULL;
            }
        }
    }
    return h;
}

RunResult
runWithCache(const Program &prog, const CacheConfig &config,
             const MachineModel &machine)
{
    Result<RunResult> r = tryRunWithCache(prog, config, machine);
    MEMORIA_ASSERT(r.ok(), "runWithCache on faulting program: "
                               << r.diag().str());
    return r.value();
}

Result<RunResult>
tryRunWithCache(const Program &prog, const CacheConfig &config,
                const MachineModel &machine)
{
    Result<SweepResult> swept = tryRunWithCaches(prog, {config}, machine);
    if (!swept.ok())
        return Result<RunResult>::err(swept.diag());
    const SweepResult &s = swept.value();
    RunResult r;
    r.exec = s.exec;
    r.cache = s.cache.front();
    r.cycles = s.cycles.front();
    r.checksum = s.checksum;
    return r;
}

SweepResult
runWithCaches(const Program &prog,
              const std::vector<CacheConfig> &configs,
              const MachineModel &machine)
{
    Result<SweepResult> r = tryRunWithCaches(prog, configs, machine);
    MEMORIA_ASSERT(r.ok(), "runWithCaches on faulting program: "
                               << r.diag().str());
    return r.value();
}

Result<SweepResult>
tryRunWithCaches(const Program &prog,
                 const std::vector<CacheConfig> &configs,
                 const MachineModel &machine)
{
    obs::TraceScope span("interp", "run_with_caches");
    span.arg("program", prog.name);
    span.arg("configs", static_cast<uint64_t>(configs.size()));

    Interpreter interp(prog);
    MultiCacheSim sim(configs);
    Status st = interp.run(&sim);
    if (!st.ok()) {
        if (span.active())
            span.arg("fault", st.diag().str());
        return Result<SweepResult>::err(st.diag());
    }

    static obs::Counter &cSweeps = obs::counter("interp.sweep_runs");
    static obs::Counter &cConfigs = obs::counter("interp.sweep_configs");
    ++cSweeps;
    cConfigs += configs.size();

    SweepResult r;
    r.exec = interp.stats();
    r.checksum = interp.checksum();
    r.cache.reserve(configs.size());
    r.cycles.reserve(configs.size());
    for (size_t i = 0; i < sim.configCount(); ++i) {
        sim.cache(i).publishStats();
        const CacheStats &cs = sim.stats(i);
        cs.checkConsistent();
        r.cache.push_back(cs);
        r.cycles.push_back(machine.cyclesPerStmt * r.exec.stmtsExecuted +
                           machine.cyclesPerRef * r.exec.memRefs +
                           machine.missPenalty * cs.misses);
    }
    if (span.active()) {
        span.arg("mem_refs", r.exec.memRefs);
        for (size_t i = 0; i < r.cache.size(); ++i)
            span.arg("misses_" + std::to_string(i), r.cache[i].misses);
    }
    return r;
}

uint64_t
runChecksum(const Program &prog)
{
    Result<uint64_t> r = tryRunChecksum(prog);
    MEMORIA_ASSERT(r.ok(), "runChecksum on faulting program: "
                               << r.diag().str());
    return r.value();
}

Result<uint64_t>
tryRunChecksum(const Program &prog)
{
    Interpreter interp(prog);
    Status st = interp.run(nullptr);
    if (!st.ok())
        return Result<uint64_t>::err(st.diag());
    return interp.checksum();
}

} // namespace memoria
