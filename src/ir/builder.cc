#include "ir/builder.hh"

#include "support/logging.hh"

namespace memoria {

Ref
Arr::operator()(const Ix &i) const
{
    ArrayRef r;
    r.array = id;
    r.subs.emplace_back(i.e);
    return {r};
}

Ref
Arr::operator()(const Ix &i, const Ix &j) const
{
    ArrayRef r;
    r.array = id;
    r.subs.emplace_back(i.e);
    r.subs.emplace_back(j.e);
    return {r};
}

Ref
Arr::operator()(const Ix &i, const Ix &j, const Ix &k) const
{
    ArrayRef r;
    r.array = id;
    r.subs.emplace_back(i.e);
    r.subs.emplace_back(j.e);
    r.subs.emplace_back(k.e);
    return {r};
}

Ref
Arr::at(std::vector<Subscript> subs) const
{
    ArrayRef r;
    r.array = id;
    r.subs = std::move(subs);
    return {r};
}

Subscript
opaqueSub(const Val &v)
{
    return Subscript::makeOpaque(v.p);
}

ProgramBuilder::ProgramBuilder(std::string name)
{
    prog_.name = std::move(name);
}

Var
ProgramBuilder::param(const std::string &name, int64_t value)
{
    VarInfo info;
    info.name = name;
    info.kind = VarKind::Param;
    info.paramValue = value;
    info.paramPoly = Poly::sym();
    prog_.vars.push_back(std::move(info));
    return {static_cast<VarId>(prog_.vars.size() - 1)};
}

Var
ProgramBuilder::loopVar(const std::string &name)
{
    VarInfo info;
    info.name = name;
    info.kind = VarKind::LoopVar;
    prog_.vars.push_back(std::move(info));
    return {static_cast<VarId>(prog_.vars.size() - 1)};
}

Arr
ProgramBuilder::array(const std::string &name, std::vector<Ix> extents,
                      int elemSize)
{
    ArrayDecl decl;
    decl.name = name;
    decl.elemSize = elemSize;
    for (const auto &ix : extents)
        decl.extents.push_back(ix.e);
    prog_.arrays.push_back(std::move(decl));
    return {static_cast<ArrayId>(prog_.arrays.size() - 1)};
}

NodePtr
ProgramBuilder::assign(const Ref &lhs, const Val &rhs)
{
    Statement s;
    s.id = nextStmt_++;
    s.write = lhs.r;
    s.rhs = rhs.p;
    return Node::makeStmt(std::move(s));
}

NodePtr
ProgramBuilder::loop(Var v, const Ix &lb, const Ix &ub,
                     std::vector<NodePtr> body, int64_t step)
{
    MEMORIA_ASSERT(v.id >= 0 &&
                       v.id < static_cast<VarId>(prog_.vars.size()),
                   "undeclared loop variable");
    MEMORIA_ASSERT(prog_.vars[v.id].kind == VarKind::LoopVar,
                   "loop() requires a loop variable, got a parameter");
    return Node::makeLoop(v.id, lb.e, ub.e, step, std::move(body));
}

void
ProgramBuilder::add(NodePtr n)
{
    prog_.body.push_back(std::move(n));
}

namespace {

void
renumberStmts(Node &n, int &next)
{
    if (n.isStmt()) {
        n.stmt.id = next++;
        return;
    }
    for (auto &kid : n.body)
        renumberStmts(*kid, next);
}

} // namespace

Program
ProgramBuilder::finish()
{
    MEMORIA_ASSERT(!finished_, "ProgramBuilder::finish called twice");
    finished_ = true;
    // Statement ids must follow document order (the dependence graph
    // uses them for direction of loop-independent dependences), but
    // the builder assigned them in argument-evaluation order, which
    // C++ leaves unspecified. Renumber in preorder.
    int next = 0;
    for (auto &n : prog_.body)
        renumberStmts(*n, next);
    return std::move(prog_);
}

} // namespace memoria
