#include "check/validate.hh"

#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_set>

#include "harness/budget.hh"
#include "harness/fault.hh"

namespace memoria {

namespace {

harness::FaultSite gValidateFault("validate.program",
                                  /*supportsDiag=*/true);

class Validator
{
  public:
    Validator(const Program &prog, const ValidateOptions &opts)
        : prog_(prog), opts_(opts)
    {
    }

    std::vector<Diag>
    run()
    {
        checkSymbols();
        activeVars_.assign(prog_.vars.size(), false);
        for (size_t v = 0; v < prog_.vars.size(); ++v)
            if (prog_.vars[v].kind == VarKind::Param)
                activeVars_[v] = true;
        for (const auto &n : prog_.body)
            checkNode(*n, 0);
        return std::move(diags_);
    }

  private:
    void
    report(const std::string &code, const std::string &message)
    {
        diags_.push_back(Diag::error(code, message));
    }

    bool varInRange(VarId v) const
    {
        return v >= 0 && static_cast<size_t>(v) < prog_.vars.size();
    }

    bool arrayInRange(ArrayId a) const
    {
        return a >= 0 && static_cast<size_t>(a) < prog_.arrays.size();
    }

    // ---- symbol tables -----------------------------------------

    void
    checkSymbols()
    {
        // Views into the (stable) symbol tables; corpus programs carry
        // hundreds of declarations, so no per-name string copies here.
        std::unordered_set<std::string_view> names;
        names.reserve(prog_.vars.size() + prog_.arrays.size());
        for (const auto &v : prog_.vars) {
            if (v.name.empty())
                report("validate.var_name", "variable with empty name");
            else if (!names.insert(v.name).second)
                report("validate.var_name",
                       "duplicate symbol name '" + v.name + "'");
        }
        for (const auto &a : prog_.arrays) {
            if (a.name.empty()) {
                report("validate.array_name", "array with empty name");
            } else if (!names.insert(a.name).second) {
                report("validate.array_name",
                       "duplicate symbol name '" + a.name + "'");
            }
            if (a.elemSize <= 0 || a.elemSize > kMaxElemSize)
                report("validate.elem_size",
                       "array '" + a.name + "' has element size " +
                           std::to_string(a.elemSize) + ", not 1 to " +
                           std::to_string(kMaxElemSize));
            for (const auto &e : a.extents)
                checkParamOnly(e, [&] {
                    return "extent of array '" + a.name + "'";
                });
        }
    }

    /** Extents must be affine over parameters only: they are evaluated
     *  once at allocation, before any loop variable has a value.
     *  `what` is a callable producing the message context — built only
     *  when a diagnostic actually fires, because this runs for every
     *  declaration of every validated program. */
    template <class F>
    void
    checkParamOnly(const AffineExpr &e, F &&what)
    {
        for (const auto &[v, c] : e.terms()) {
            if (!varInRange(v)) {
                report("validate.var_range",
                       what() + " references out-of-range variable id " +
                           std::to_string(v));
            } else if (prog_.vars[v].kind != VarKind::Param) {
                report("validate.extent",
                       what() + " references loop variable '" +
                           prog_.vars[v].name + "'");
            }
        }
    }

    // ---- scoped affine expressions -----------------------------

    /** Every variable of `e` must be a parameter or an active
     *  (enclosing) loop variable. `what` is a lazy message builder,
     *  like checkParamOnly's. */
    template <class F>
    void
    checkScoped(const AffineExpr &e, F &&what)
    {
        for (const auto &[v, c] : e.terms()) {
            if (!varInRange(v)) {
                report("validate.var_range",
                       what() + " references out-of-range variable id " +
                           std::to_string(v));
            } else if (!activeVars_[v]) {
                report("validate.scope",
                       what() + " references variable '" +
                           prog_.vars[v].name +
                           "' outside its defining loop");
            }
        }
    }

    // ---- nodes -------------------------------------------------

    void
    checkNode(const Node &n, int depth)
    {
        if (++nodeCount_ == opts_.maxNodes + 1) {
            report("validate.nodes",
                   "program exceeds node cap of " +
                       std::to_string(opts_.maxNodes));
        }
        if (nodeCount_ > opts_.maxNodes)
            return;  // one cap diagnostic, not millions

        if (n.isStmt()) {
            checkStmt(n.stmt);
            return;
        }
        if (depth >= opts_.maxDepth) {
            if (!depthReported_) {
                depthReported_ = true;
                report("validate.depth",
                       "loop nesting exceeds depth cap of " +
                           std::to_string(opts_.maxDepth));
            }
            return;
        }
        if (!varInRange(n.var)) {
            report("validate.loop_var",
                   "loop with out-of-range variable id " +
                       std::to_string(n.var));
            return;
        }
        const VarInfo &info = prog_.vars[n.var];
        if (info.kind != VarKind::LoopVar)
            report("validate.loop_var", "loop indexed by parameter '" +
                                            info.name + "'");
        if (n.step == 0)
            report("validate.step",
                   "loop over '" + info.name + "' has step 0");
        if (activeVars_[n.var])
            report("validate.loop_var",
                   "loop variable '" + info.name +
                       "' rebound inside its own loop");
        // Bounds are evaluated before the variable is live.
        checkScoped(n.lb, [&] {
            return "lower bound of loop '" + info.name + "'";
        });
        checkScoped(n.ub, [&] {
            return "upper bound of loop '" + info.name + "'";
        });

        bool wasActive = activeVars_[n.var];
        activeVars_[n.var] = true;
        for (const auto &kid : n.body)
            checkNode(*kid, depth + 1);
        activeVars_[n.var] = wasActive;
    }

    // ---- statements and values ---------------------------------

    void
    checkStmt(const Statement &s)
    {
        std::string where = "statement " + std::to_string(s.id);
        if (s.id < 0)
            report("validate.stmt_id", "statement with negative id");
        else if (!stmtIds_.insert(s.id).second)
            report("validate.stmt_id",
                   "duplicate statement id " + std::to_string(s.id));
        checkRef(s.write, where + " write");
        if (!s.rhs)
            report("validate.rhs", where + " has null rhs");
        else
            checkValue(s.rhs, where + " rhs", 0);
    }

    void
    checkRef(const ArrayRef &ref, const std::string &what)
    {
        if (!arrayInRange(ref.array)) {
            report("validate.array_range",
                   what + " references out-of-range array id " +
                       std::to_string(ref.array));
            return;
        }
        const ArrayDecl &decl = prog_.arrays[ref.array];
        if (ref.subs.size() != decl.extents.size()) {
            std::ostringstream os;
            os << what << " uses array '" << decl.name << "' with rank "
               << ref.subs.size() << " (declared "
               << decl.extents.size() << ")";
            report("validate.rank", os.str());
            return;
        }
        for (const auto &sub : ref.subs) {
            if (sub.isAffine())
                checkScoped(sub.affine, [&] {
                    return what + " subscript of '" + decl.name + "'";
                });
            else
                checkValue(sub.opaque,
                           what + " opaque subscript of '" + decl.name +
                               "'",
                           0);
        }
    }

    void
    checkValue(const ValuePtr &v, const std::string &what, int depth)
    {
        if (!v) {
            report("validate.value", what + " contains a null value");
            return;
        }
        if (depth > kMaxValueDepth) {
            if (!valueDepthReported_) {
                valueDepthReported_ = true;
                report("validate.value_depth",
                       what + " exceeds expression depth cap of " +
                           std::to_string(kMaxValueDepth));
            }
            return;
        }
        size_t arity;
        switch (v->op) {
          case ValOp::Const:
            arity = 0;
            break;
          case ValOp::Load:
            arity = 0;
            checkRef(v->load, what + " load");
            break;
          case ValOp::Index:
            arity = 0;
            checkScoped(v->index,
                        [&] { return what + " index expression"; });
            break;
          case ValOp::Neg:
          case ValOp::Sqrt:
            arity = 1;
            break;
          default:
            arity = 2;
            break;
        }
        if (v->kids.size() != arity) {
            std::ostringstream os;
            os << what << " operator has " << v->kids.size()
               << " operands (expected " << arity << ")";
            report("validate.arity", os.str());
        }
        for (const auto &kid : v->kids)
            checkValue(kid, what, depth + 1);
    }

    static constexpr int kMaxValueDepth = 256;

  public:
    /** Nodes visited; feeds the harness IR budget. */
    size_t nodeCount() const { return nodeCount_; }

  private:
    const Program &prog_;
    const ValidateOptions &opts_;
    std::vector<Diag> diags_;
    std::vector<bool> activeVars_;  ///< params + enclosing loop vars
    std::set<int> stmtIds_;
    size_t nodeCount_ = 0;
    bool depthReported_ = false;
    bool valueDepthReported_ = false;
};

} // namespace

std::vector<Diag>
validateProgram(const Program &prog, const ValidateOptions &opts)
{
    std::vector<Diag> diags;
    if (std::optional<Diag> injected = gValidateFault.fire())
        diags.push_back(*injected);
    Validator v(prog, opts);
    std::vector<Diag> found = v.run();
    diags.insert(diags.end(), found.begin(), found.end());
    harness::chargeIrNodes(v.nodeCount(), "validate.program");
    return diags;
}

} // namespace memoria
