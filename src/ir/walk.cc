#include "ir/walk.hh"

#include "support/logging.hh"

namespace memoria {

NodePtr
cloneNode(const Node &n)
{
    auto out = std::make_unique<Node>();
    out->kind = n.kind;
    out->var = n.var;
    out->lb = n.lb;
    out->ub = n.ub;
    out->step = n.step;
    out->stmt = n.stmt;
    out->body.reserve(n.body.size());
    for (const auto &kid : n.body)
        out->body.push_back(cloneNode(*kid));
    return out;
}

namespace {

void
collectStmtsImpl(Node *n, std::vector<Node *> &loops,
                 std::vector<StmtContext> &out)
{
    if (n->isStmt()) {
        out.push_back({n, loops});
        return;
    }
    loops.push_back(n);
    for (auto &kid : n->body)
        collectStmtsImpl(kid.get(), loops, out);
    loops.pop_back();
}

void
collectRefsValue(const Statement &stmt, const ValuePtr &v,
                 std::vector<RefOcc> &out)
{
    if (!v)
        return;
    if (v->op == ValOp::Load) {
        out.push_back({&stmt, &v->load, false});
        for (const auto &s : v->load.subs)
            if (!s.isAffine())
                collectRefsValue(stmt, s.opaque, out);
    }
    for (const auto &kid : v->kids)
        collectRefsValue(stmt, kid, out);
}

} // namespace

std::vector<StmtContext>
collectStmts(Node *root)
{
    std::vector<StmtContext> out;
    std::vector<Node *> loops;
    collectStmtsImpl(root, loops, out);
    return out;
}

std::vector<StmtContext>
collectStmts(Program &prog)
{
    std::vector<StmtContext> out;
    std::vector<Node *> loops;
    for (auto &n : prog.body)
        collectStmtsImpl(n.get(), loops, out);
    return out;
}

std::vector<RefOcc>
collectRefs(const Statement &stmt)
{
    std::vector<RefOcc> out;
    out.push_back({&stmt, &stmt.write, true});
    for (const auto &s : stmt.write.subs)
        if (!s.isAffine())
            collectRefsValue(stmt, s.opaque, out);
    collectRefsValue(stmt, stmt.rhs, out);
    return out;
}

namespace {

void
collectLoopsImpl(Node *n, std::vector<Node *> &out)
{
    if (n->isLoop()) {
        out.push_back(n);
        for (auto &kid : n->body)
            collectLoopsImpl(kid.get(), out);
    }
}

} // namespace

std::vector<Node *>
collectLoops(Node *root)
{
    std::vector<Node *> out;
    collectLoopsImpl(root, out);
    return out;
}

std::vector<Node *>
perfectChain(Node *loop)
{
    MEMORIA_ASSERT(loop->isLoop(), "perfectChain requires a loop");
    std::vector<Node *> chain{loop};
    Node *cur = loop;
    while (cur->body.size() == 1 && cur->body[0]->isLoop()) {
        cur = cur->body[0].get();
        chain.push_back(cur);
    }
    return chain;
}

int
loopDepth(const Node &n)
{
    if (n.isStmt())
        return 0;
    int deepest = 0;
    for (const auto &kid : n.body)
        deepest = std::max(deepest, loopDepth(*kid));
    return 1 + deepest;
}

int
countStmts(const Node &n)
{
    if (n.isStmt())
        return 1;
    int total = 0;
    for (const auto &kid : n.body)
        total += countStmts(*kid);
    return total;
}

void
collectStmtIds(const Node &n, std::vector<int> &out)
{
    if (n.isStmt()) {
        out.push_back(n.stmt.id);
        return;
    }
    for (const auto &kid : n.body)
        collectStmtIds(*kid, out);
}

namespace {

ArrayRef
substituteVarRef(const ArrayRef &ref, VarId v, const AffineExpr &e)
{
    ArrayRef out;
    out.array = ref.array;
    out.subs.reserve(ref.subs.size());
    for (const auto &s : ref.subs) {
        if (s.isAffine())
            out.subs.emplace_back(s.affine.substitute(v, e));
        else
            out.subs.push_back(
                Subscript::makeOpaque(substituteVarValue(s.opaque, v, e)));
    }
    return out;
}

} // namespace

ValuePtr
substituteVarValue(const ValuePtr &val, VarId v, const AffineExpr &e)
{
    if (!val)
        return val;
    auto out = std::make_shared<Value>();
    out->op = val->op;
    out->constant = val->constant;
    out->index = val->index.substitute(v, e);
    if (val->op == ValOp::Load)
        out->load = substituteVarRef(val->load, v, e);
    out->kids.reserve(val->kids.size());
    for (const auto &kid : val->kids)
        out->kids.push_back(substituteVarValue(kid, v, e));
    return out;
}

void
substituteVarStmt(Statement &stmt, VarId v, const AffineExpr &e)
{
    stmt.write = substituteVarRef(stmt.write, v, e);
    stmt.rhs = substituteVarValue(stmt.rhs, v, e);
}

void
substituteVar(Node &n, VarId v, const AffineExpr &e)
{
    if (n.isStmt()) {
        substituteVarStmt(n.stmt, v, e);
        return;
    }
    n.lb = n.lb.substitute(v, e);
    n.ub = n.ub.substitute(v, e);
    for (auto &kid : n.body)
        substituteVar(*kid, v, e);
}

namespace {

bool
valueEqual(const ValuePtr &a, const ValuePtr &b);

bool
refEqual(const ArrayRef &a, const ArrayRef &b)
{
    if (a.array != b.array || a.subs.size() != b.subs.size())
        return false;
    for (size_t i = 0; i < a.subs.size(); ++i) {
        const auto &sa = a.subs[i];
        const auto &sb = b.subs[i];
        if (sa.isAffine() != sb.isAffine())
            return false;
        if (sa.isAffine()) {
            if (!(sa.affine == sb.affine))
                return false;
        } else if (!valueEqual(sa.opaque, sb.opaque)) {
            return false;
        }
    }
    return true;
}

bool
valueEqual(const ValuePtr &a, const ValuePtr &b)
{
    if (a == b)
        return true;
    if (!a || !b)
        return false;
    if (a->op != b->op || a->constant != b->constant ||
        !(a->index == b->index) || a->kids.size() != b->kids.size())
        return false;
    if (a->op == ValOp::Load && !refEqual(a->load, b->load))
        return false;
    for (size_t i = 0; i < a->kids.size(); ++i)
        if (!valueEqual(a->kids[i], b->kids[i]))
            return false;
    return true;
}

} // namespace

bool
refsEqual(const ArrayRef &a, const ArrayRef &b)
{
    return refEqual(a, b);
}

bool
structurallyEqual(const Node &a, const Node &b)
{
    if (a.kind != b.kind)
        return false;
    if (a.isStmt()) {
        return a.stmt.id == b.stmt.id &&
               refEqual(a.stmt.write, b.stmt.write) &&
               valueEqual(a.stmt.rhs, b.stmt.rhs);
    }
    if (a.var != b.var || !(a.lb == b.lb) || !(a.ub == b.ub) ||
        a.step != b.step || a.body.size() != b.body.size())
        return false;
    for (size_t i = 0; i < a.body.size(); ++i)
        if (!structurallyEqual(*a.body[i], *b.body[i]))
            return false;
    return true;
}

bool
structurallyEqual(const Program &a, const Program &b)
{
    if (a.body.size() != b.body.size())
        return false;
    for (size_t i = 0; i < a.body.size(); ++i)
        if (!structurallyEqual(*a.body[i], *b.body[i]))
            return false;
    return true;
}

namespace {

bool
valueUsesVar(const ValuePtr &v, VarId var)
{
    if (!v)
        return false;
    if (v->index.uses(var))
        return true;
    if (v->op == ValOp::Load) {
        for (const auto &s : v->load.subs) {
            if (s.isAffine() ? s.affine.uses(var)
                             : valueUsesVar(s.opaque, var))
                return true;
        }
    }
    for (const auto &kid : v->kids)
        if (valueUsesVar(kid, var))
            return true;
    return false;
}

} // namespace

int
maxStmtId(const Program &prog)
{
    int top = -1;
    std::function<void(const Node &)> walk = [&](const Node &n) {
        if (n.isStmt())
            top = std::max(top, n.stmt.id);
        for (const auto &kid : n.body)
            walk(*kid);
    };
    for (const auto &n : prog.body)
        walk(*n);
    return top;
}

void
renumberStmtsFrom(Node &n, int &next)
{
    if (n.isStmt()) {
        n.stmt.id = next++;
        return;
    }
    for (auto &kid : n.body)
        renumberStmtsFrom(*kid, next);
}

bool
usesVar(const Node &n, VarId v)
{
    if (n.isStmt()) {
        for (const auto &s : n.stmt.write.subs) {
            if (s.isAffine() ? s.affine.uses(v) : valueUsesVar(s.opaque, v))
                return true;
        }
        return valueUsesVar(n.stmt.rhs, v);
    }
    if (n.lb.uses(v) || n.ub.uses(v))
        return true;
    for (const auto &kid : n.body)
        if (usesVar(*kid, v))
            return true;
    return false;
}

} // namespace memoria
