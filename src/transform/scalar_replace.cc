#include "transform/scalar_replace.hh"

#include <algorithm>
#include <vector>

#include "ir/walk.hh"
#include "support/logging.hh"

namespace memoria {

namespace {

/** Rebuild a value tree with loads of `target` redirected to `reg`. */
ValuePtr
redirectLoads(const ValuePtr &val, const ArrayRef &target, ArrayId reg)
{
    if (!val)
        return val;
    if (val->op == ValOp::Load && refsEqual(val->load, target)) {
        ArrayRef r;
        r.array = reg;
        return Value::makeLoad(std::move(r));
    }
    auto out = std::make_shared<Value>();
    out->op = val->op;
    out->constant = val->constant;
    out->index = val->index;
    out->load = val->load;
    out->kids.reserve(val->kids.size());
    for (const auto &kid : val->kids)
        out->kids.push_back(redirectLoads(kid, target, reg));
    return out;
}

struct Promoter
{
    Program &prog;
    ScalarReplaceStats stats;
    int nextId;
    int nextReg = 0;

    void
    visitBody(std::vector<NodePtr> &body)
    {
        for (size_t i = 0; i < body.size(); ++i) {
            if (!body[i]->isLoop())
                continue;
            bool innermost = true;
            for (const auto &kid : body[i]->body)
                innermost = innermost && kid->isStmt();
            if (innermost)
                i += promoteIn(body, i);
            else
                visitBody(body[i]->body);
        }
    }

    /** Promote invariant references in the innermost loop at
     *  body[idx]; returns extra slots inserted after it. */
    size_t
    promoteIn(std::vector<NodePtr> &body, size_t idx)
    {
        Node &loop = *body[idx];

        // Gather reference occurrences.
        struct Occ
        {
            Statement *stmt;
            ArrayRef ref;
            bool isWrite;
        };
        std::vector<Occ> occs;
        for (auto &item : loop.body) {
            Statement &s = item->stmt;
            for (const auto &o : collectRefs(s))
                occs.push_back({&s, *o.ref, o.isWrite});
        }

        // Candidate identity classes: affine, loop-invariant, not
        // already a register.
        std::vector<ArrayRef> classes;
        auto classOf = [&](const ArrayRef &r) {
            for (size_t c = 0; c < classes.size(); ++c)
                if (refsEqual(classes[c], r))
                    return static_cast<int>(c);
            return -1;
        };
        for (const auto &o : occs)
            if (classOf(o.ref) < 0)
                classes.push_back(o.ref);

        size_t inserted = 0;
        for (const auto &cls : classes) {
            if (prog.arrayDecl(cls.array).isRegister || !cls.isAffine())
                continue;
            bool invariant = true;
            for (const auto &s : cls.subs)
                invariant = invariant && !s.affine.uses(loop.var);
            if (!invariant)
                continue;

            // Alias guard: every other reference to the same array must
            // be provably disjoint — some subscript pair differing by a
            // non-zero constant (the ZIV test).
            auto disjoint = [](const ArrayRef &a, const ArrayRef &b) {
                if (a.subs.size() != b.subs.size())
                    return false;
                for (size_t d = 0; d < a.subs.size(); ++d) {
                    if (!a.subs[d].isAffine() || !b.subs[d].isAffine())
                        continue;
                    AffineExpr diff =
                        a.subs[d].affine - b.subs[d].affine;
                    if (diff.isConstant() && diff.constant() != 0)
                        return true;
                }
                return false;
            };
            bool aliased = false;
            bool anyWrite = false;
            for (const auto &o : occs) {
                if (o.ref.array != cls.array)
                    continue;
                if (refsEqual(o.ref, cls)) {
                    anyWrite = anyWrite || o.isWrite;
                    continue;
                }
                if (!disjoint(o.ref, cls)) {
                    aliased = true;
                    break;
                }
            }
            if (aliased)
                continue;

            // Allocate the register and rewrite the loop body.
            ArrayDecl decl;
            decl.name = "R";
            decl.name += std::to_string(nextReg++);
            decl.isRegister = true;
            prog.arrays.push_back(std::move(decl));
            ArrayId reg = static_cast<ArrayId>(prog.arrays.size() - 1);
            ArrayRef regRef;
            regRef.array = reg;

            for (auto &item : loop.body) {
                Statement &s = item->stmt;
                s.rhs = redirectLoads(s.rhs, cls, reg);
                if (refsEqual(s.write, cls))
                    s.write = regRef;
            }

            // Preload before the loop; store back after when written.
            Statement pre;
            pre.id = ++nextId;
            pre.write = regRef;
            pre.rhs = Value::makeLoad(cls);
            body.insert(body.begin() + idx,
                        Node::makeStmt(std::move(pre)));
            ++idx;  // the loop shifted right

            if (anyWrite) {
                Statement post;
                post.id = ++nextId;
                post.write = cls;
                post.rhs = Value::makeLoad(regRef);
                body.insert(body.begin() + idx + 1,
                            Node::makeStmt(std::move(post)));
                ++inserted;
                ++stats.replacedReductions;
            } else {
                ++stats.replacedReads;
            }
            ++inserted;
        }
        return inserted;
    }
};

} // namespace

ScalarReplaceStats
scalarReplace(Program &prog)
{
    Promoter p{prog, {}, maxStmtId(prog), 0};
    p.visitBody(prog.body);
    return p.stats;
}

} // namespace memoria
