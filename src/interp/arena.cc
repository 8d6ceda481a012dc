#include "interp/arena.hh"

#include "support/logging.hh"

namespace memoria {

ProgramArena::ProgramArena(const Program &prog) : src_(&prog)
{
    for (const NodePtr &n : prog.body)
        roots_.push_back(addNode(*n));
}

ArenaId
ProgramArena::addAffine(const AffineExpr &e)
{
    Affine a;
    a.firstTerm = static_cast<int32_t>(terms_.size());
    a.termCount = static_cast<int32_t>(e.terms().size());
    a.constant = e.constant();
    for (const AffineExpr::Term &t : e.terms())
        terms_.push_back({t.first, t.second});
    affines_.push_back(a);
    return static_cast<ArenaId>(affines_.size() - 1);
}

ArenaId
ProgramArena::addRef(const ArrayRef &ref)
{
    // Children (subscripts, including opaque value trees) are added
    // first so the Ref's sub range is contiguous: opaque value ids are
    // recorded before the Sub records are appended.
    std::vector<Sub> local;
    local.reserve(ref.subs.size());
    for (const Subscript &s : ref.subs) {
        Sub sub;
        if (s.isAffine())
            sub.affine = addAffine(s.affine);
        else
            sub.opaque = addValue(s.opaque);
        local.push_back(sub);
    }
    Ref r;
    r.array = ref.array;
    r.firstSub = static_cast<int32_t>(subs_.size());
    r.subCount = static_cast<int32_t>(local.size());
    subs_.insert(subs_.end(), local.begin(), local.end());
    refs_.push_back(r);
    return static_cast<ArenaId>(refs_.size() - 1);
}

ArenaId
ProgramArena::addValue(const ValuePtr &v)
{
    MEMORIA_ASSERT(v != nullptr, "null value in arena build");
    auto memo = valueMemo_.find(v.get());
    if (memo != valueMemo_.end())
        return memo->second;

    Val rec;
    rec.op = v->op;
    switch (v->op) {
      case ValOp::Const:
        rec.constant = v->constant;
        break;
      case ValOp::Index:
        rec.index = addAffine(v->index);
        break;
      case ValOp::Load:
        rec.ref = addRef(v->load);
        break;
      default:
        MEMORIA_ASSERT(!v->kids.empty() && v->kids.size() <= 2,
                       "value arity out of range");
        rec.kid0 = addValue(v->kids[0]);
        if (v->kids.size() > 1)
            rec.kid1 = addValue(v->kids[1]);
        break;
    }
    vals_.push_back(rec);
    ArenaId id = static_cast<ArenaId>(vals_.size() - 1);
    valueMemo_.emplace(v.get(), id);
    return id;
}

ArenaId
ProgramArena::addNode(const ::memoria::Node &n)
{
    if (n.isStmt()) {
        Stmt s;
        s.id = n.stmt.id;
        s.write = addRef(n.stmt.write);
        s.rhs = addValue(n.stmt.rhs);
        stmts_.push_back(s);

        Node rec;
        rec.isLoop = false;
        rec.stmt = static_cast<ArenaId>(stmts_.size() - 1);
        nodes_.push_back(rec);
        return static_cast<ArenaId>(nodes_.size() - 1);
    }

    Node rec;
    rec.isLoop = true;
    rec.var = n.var;
    rec.lb = addAffine(n.lb);
    rec.ub = addAffine(n.ub);
    rec.step = n.step;

    // Build children first (their ids land anywhere in nodes_), then
    // record the contiguous id range in the child index pool.
    std::vector<ArenaId> kids;
    kids.reserve(n.body.size());
    for (const NodePtr &kid : n.body)
        kids.push_back(addNode(*kid));
    rec.firstChild = static_cast<int32_t>(children_.size());
    rec.childCount = static_cast<int32_t>(kids.size());
    children_.insert(children_.end(), kids.begin(), kids.end());

    nodes_.push_back(rec);
    return static_cast<ArenaId>(nodes_.size() - 1);
}

namespace {

/** Rebuilds tree IR from an arena's pools, for toProgram(). */
struct Rebuild
{
    const ProgramArena &a;

    AffineExpr
    affine(ArenaId id) const
    {
        const ProgramArena::Affine &x = a.affines().at(id);
        AffineExpr e(x.constant);
        for (int32_t i = 0; i < x.termCount; ++i) {
            const ProgramArena::Term &t = a.terms()[x.firstTerm + i];
            e = e + AffineExpr::makeVar(t.var, t.coeff);
        }
        return e;
    }

    ArrayRef
    ref(ArenaId id) const
    {
        const ProgramArena::Ref &r = a.refs().at(id);
        ArrayRef out;
        out.array = r.array;
        out.subs.reserve(r.subCount);
        for (int32_t k = 0; k < r.subCount; ++k) {
            const ProgramArena::Sub &s = a.subs()[r.firstSub + k];
            if (s.opaque != kNoArena)
                out.subs.push_back(Subscript::makeOpaque(value(s.opaque)));
            else
                out.subs.push_back(Subscript(affine(s.affine)));
        }
        return out;
    }

    ValuePtr
    value(ArenaId id) const
    {
        const ProgramArena::Val &v = a.vals().at(id);
        switch (v.op) {
          case ValOp::Const:
            return Value::makeConst(v.constant);
          case ValOp::Index:
            return Value::makeIndex(affine(v.index));
          case ValOp::Load:
            return Value::makeLoad(ref(v.ref));
          default: {
            std::vector<ValuePtr> kids;
            kids.push_back(value(v.kid0));
            if (v.kid1 != kNoArena)
                kids.push_back(value(v.kid1));
            return Value::make(v.op, std::move(kids));
          }
        }
    }

    NodePtr
    node(ArenaId id) const
    {
        const ProgramArena::Node &n = a.nodes().at(id);
        if (!n.isLoop) {
            const ProgramArena::Stmt &s = a.stmts().at(n.stmt);
            Statement stmt;
            stmt.id = s.id;
            stmt.write = ref(s.write);
            stmt.rhs = value(s.rhs);
            return Node::makeStmt(std::move(stmt));
        }
        std::vector<NodePtr> body;
        body.reserve(n.childCount);
        for (int32_t i = 0; i < n.childCount; ++i)
            body.push_back(node(a.childIndex()[n.firstChild + i]));
        return Node::makeLoop(n.var, affine(n.lb), affine(n.ub), n.step,
                              std::move(body));
    }
};

} // namespace

Program
ProgramArena::toProgram() const
{
    Program out;
    out.name = src_->name;
    out.vars = src_->vars;
    out.arrays = src_->arrays;
    Rebuild rebuild{*this};
    for (ArenaId root : roots_)
        out.body.push_back(rebuild.node(root));
    return out;
}

} // namespace memoria
