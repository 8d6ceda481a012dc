#include "reference_interp.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "support/logging.hh"

namespace memoria {

namespace {

/** Unwinds a program fault out of the recursive walk. */
struct RefFault
{
    Diag diag;
};

class ReferenceEvaluator
{
  public:
    ReferenceEvaluator(const Program &prog, MemoryListener *listener)
        : prog_(prog), listener_(listener)
    {
        env_.assign(prog.vars.size(), 0);
        for (size_t v = 0; v < prog.vars.size(); ++v)
            if (prog.vars[v].kind == VarKind::Param)
                env_[v] = prog.vars[v].paramValue;
    }

    ReferenceRun
    run()
    {
        ReferenceRun out;
        if (std::optional<Diag> bad = bindExtents()) {
            out.status = Status::err(*bad);
            return out;
        }
        Interpreter initial(prog_);
        for (size_t a = 0; a < prog_.arrays.size(); ++a) {
            data_.push_back(initial.arrayData(static_cast<ArrayId>(a)));
            bases_.push_back(initial.arrayBase(static_cast<ArrayId>(a)));
        }
        try {
            for (const NodePtr &n : prog_.body)
                exec(*n);
        } catch (const RefFault &f) {
            out.status = Status::err(f.diag);
        }
        out.stats = stats_;
        out.checksum = checksum();
        return out;
    }

  private:
    int64_t
    affine(const AffineExpr &e) const
    {
        return e.eval([this](VarId v) { return env_[v]; });
    }

    /** Concrete extents; the first non-positive one is the
     *  interpreter's allocation fault. */
    std::optional<Diag>
    bindExtents()
    {
        for (const ArrayDecl &decl : prog_.arrays) {
            std::vector<int64_t> ext;
            for (const AffineExpr &e : decl.extents) {
                int64_t x = affine(e);
                if (x <= 0)
                    return Diag::error("interp.extent",
                                       "non-positive extent " +
                                           std::to_string(x) +
                                           " for array " + decl.name);
                ext.push_back(x);
            }
            extents_.push_back(std::move(ext));
        }
        return std::nullopt;
    }

    [[noreturn]] void
    fault(const std::string &code, const std::string &msg) const
    {
        std::string where;
        for (VarId v : loops_)
            where += (where.empty() ? " in DO " : ", DO ") +
                     prog_.varName(v) + "=" + std::to_string(env_[v]);
        if (stmt_ >= 0)
            where += " (statement " + std::to_string(stmt_) + ")";
        throw RefFault{Diag::error(code, msg + where)};
    }

    /** Linear element index of `ref`, subscripts first to last. */
    uint64_t
    element(const ArrayRef &ref)
    {
        if (ref.array < 0 ||
            static_cast<size_t>(ref.array) >= prog_.arrays.size())
            fault("interp.array", "reference to out-of-range array id " +
                                      std::to_string(ref.array));
        const ArrayDecl &decl = prog_.arrayDecl(ref.array);
        const std::vector<int64_t> &ext = extents_[ref.array];
        if (ref.subs.size() != ext.size())
            fault("interp.rank", "rank " + std::to_string(ref.subs.size()) +
                                     " reference to rank " +
                                     std::to_string(ext.size()) +
                                     " array " + decl.name);
        uint64_t index = 0;
        uint64_t stride = 1;
        for (size_t k = 0; k < ext.size(); ++k) {
            const Subscript &sub = ref.subs[k];
            int64_t s = sub.isAffine() ? affine(sub.affine)
                                       : std::llround(value(*sub.opaque));
            if (s < 1 || s > ext[k])
                fault("interp.oob",
                      "subscript " + std::to_string(k + 1) + " = " +
                          std::to_string(s) + " out of bounds 1.." +
                          std::to_string(ext[k]) + " on array " +
                          decl.name);
            index += static_cast<uint64_t>(s - 1) * stride;
            stride *= static_cast<uint64_t>(ext[k]);
        }
        return index;
    }

    void
    touch(const ArrayRef &ref, uint64_t index, bool isWrite)
    {
        const ArrayDecl &decl = prog_.arrayDecl(ref.array);
        if (decl.isRegister)
            return;
        ++stats_.memRefs;
        if (listener_)
            listener_->access(bases_[ref.array] + index * decl.elemSize,
                              decl.elemSize, isWrite);
    }

    double
    value(const Value &v)
    {
        switch (v.op) {
          case ValOp::Const:
            return v.constant;
          case ValOp::Index:
            return static_cast<double>(affine(v.index));
          case ValOp::Load: {
            uint64_t index = element(v.load);
            touch(v.load, index, false);
            return data_[v.load.array][index];
          }
          case ValOp::Neg:
            return -value(*v.kids[0]);
          case ValOp::Sqrt:
            return std::sqrt(value(*v.kids[0]));
          default:
            break;
        }
        double a = value(*v.kids[0]);
        double b = value(*v.kids[1]);
        switch (v.op) {
          case ValOp::Add:
            return a + b;
          case ValOp::Sub:
            return a - b;
          case ValOp::Mul:
            return a * b;
          case ValOp::Div:
            return a / b;
          case ValOp::Min:
            return std::min(a, b);
          case ValOp::Max:
            return std::max(a, b);
          case ValOp::IMod: {
            int64_t x = std::llround(a);
            int64_t y = std::llround(b);
            if (y == 0)
                fault("interp.mod_zero", "MOD by zero");
            int64_t m = x % y;
            if (m < 0)
                m += std::abs(y);
            return static_cast<double>(m);
          }
          default:
            panic("reference: unhandled value op");
        }
    }

    void
    exec(const Node &n)
    {
        if (n.isStmt()) {
            const Statement &s = n.stmt;
            stmt_ = s.id;
            double rhs = value(*s.rhs);
            uint64_t index = element(s.write);
            touch(s.write, index, true);
            data_[s.write.array][index] = rhs;
            ++stats_.stmtsExecuted;
            return;
        }
        if (n.step == 0)
            fault("interp.step",
                  "loop over '" + prog_.varName(n.var) + "' has step 0");
        loops_.push_back(n.var);
        int64_t lb = affine(n.lb);
        int64_t ub = affine(n.ub);
        for (int64_t v = lb; n.step > 0 ? v <= ub : v >= ub; v += n.step) {
            ++stats_.loopIterations;
            env_[n.var] = v;
            for (const NodePtr &kid : n.body)
                exec(*kid);
        }
        loops_.pop_back();
    }

    uint64_t
    checksum() const
    {
        uint64_t h = 0xcbf29ce484222325ULL;
        for (const std::vector<double> &arr : data_) {
            for (double d : arr) {
                uint64_t bits;
                std::memcpy(&bits, &d, sizeof(bits));
                for (int b = 0; b < 8; ++b) {
                    h ^= (bits >> (8 * b)) & 0xff;
                    h *= 0x100000001b3ULL;
                }
            }
        }
        return h;
    }

    const Program &prog_;
    MemoryListener *listener_;
    std::vector<int64_t> env_;
    std::vector<std::vector<int64_t>> extents_;
    std::vector<std::vector<double>> data_;
    std::vector<uint64_t> bases_;
    std::vector<VarId> loops_;  ///< active loops, outer first
    int stmt_ = -1;             ///< last statement entered
    ExecStats stats_;
};

} // namespace

ReferenceRun
runReference(const Program &prog, MemoryListener *listener)
{
    return ReferenceEvaluator(prog, listener).run();
}

} // namespace memoria
