#include "check/reduce.hh"

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>

#include "ir/walk.hh"

namespace memoria {

namespace {

using Clock = std::chrono::steady_clock;

/** Statement ids in program order (deterministic). */
std::vector<int>
stmtIds(const Program &prog)
{
    std::vector<int> ids;
    for (const NodePtr &n : prog.body)
        collectStmtIds(*n, ids);
    return ids;
}

size_t
countNodes(const Node &n)
{
    if (n.isStmt())
        return 1;
    size_t total = 1;
    for (const NodePtr &child : n.body)
        total += countNodes(*child);
    return total;
}

/** Copy of `n` without the statements in `drop`; loops left with empty
 *  bodies are pruned (nullptr). */
NodePtr
filterNode(const Node &n, const std::set<int> &drop)
{
    if (n.isStmt())
        return drop.count(n.stmt.id) ? nullptr : cloneNode(n);
    std::vector<NodePtr> body;
    for (const NodePtr &child : n.body) {
        if (NodePtr kept = filterNode(*child, drop))
            body.push_back(std::move(kept));
    }
    if (body.empty())
        return nullptr;
    return Node::makeLoop(n.var, n.lb, n.ub, n.step, std::move(body));
}

Program
buildWithout(const Program &base, const std::set<int> &drop)
{
    Program out;
    out.name = base.name;
    out.vars = base.vars;
    out.arrays = base.arrays;
    for (const NodePtr &n : base.body) {
        if (NodePtr kept = filterNode(*n, drop))
            out.body.push_back(std::move(kept));
    }
    return out;
}

/** Paths (child-index chains from the program body) of every loop node,
 *  preorder, so outer loops are attempted before the loops they contain. */
void
gatherLoopPaths(const Node &n, std::vector<int> &prefix,
                std::vector<std::vector<int>> &out)
{
    if (!n.isLoop())
        return;
    out.push_back(prefix);
    for (size_t i = 0; i < n.body.size(); ++i) {
        prefix.push_back(static_cast<int>(i));
        gatherLoopPaths(*n.body[i], prefix, out);
        prefix.pop_back();
    }
}

std::vector<std::vector<int>>
loopPaths(const Program &prog)
{
    std::vector<std::vector<int>> out;
    for (size_t i = 0; i < prog.body.size(); ++i) {
        std::vector<int> prefix{static_cast<int>(i)};
        gatherLoopPaths(*prog.body[i], prefix, out);
    }
    return out;
}

/** The container holding the node at `path`, plus its index in it. */
std::vector<NodePtr> *
containerAt(Program &prog, const std::vector<int> &path, size_t &index)
{
    std::vector<NodePtr> *container = &prog.body;
    for (size_t i = 0; i + 1 < path.size(); ++i)
        container = &(*container)[path[i]]->body;
    index = static_cast<size_t>(path.back());
    return container;
}

/** One subscript simplification step: opaque subscripts become the
 *  constant 1, affine subscripts lose their constant shift. */
bool
simplifyRef(ArrayRef &ref)
{
    bool changed = false;
    for (Subscript &sub : ref.subs) {
        if (!sub.isAffine()) {
            sub = Subscript(AffineExpr(1));
            changed = true;
        } else if (!sub.affine.isConstant() && sub.affine.constant() != 0) {
            sub.affine = sub.affine - sub.affine.constant();
            changed = true;
        }
    }
    return changed;
}

/** Rebuild a value tree with every Load's subscripts simplified. */
ValuePtr
simplifyLoads(const ValuePtr &v, bool &changed)
{
    if (!v)
        return v;
    if (v->op == ValOp::Load) {
        ArrayRef ref = v->load;
        if (simplifyRef(ref)) {
            changed = true;
            return Value::makeLoad(std::move(ref));
        }
        return v;
    }
    if (v->kids.empty())
        return v;
    bool kidsChanged = false;
    std::vector<ValuePtr> kids;
    kids.reserve(v->kids.size());
    for (const ValuePtr &k : v->kids)
        kids.push_back(simplifyLoads(k, kidsChanged));
    if (!kidsChanged)
        return v;
    changed = true;
    return Value::make(v->op, std::move(kids));
}

Statement *
findStmt(Program &prog, int id)
{
    for (StmtContext &ctx : collectStmts(prog)) {
        if (ctx.node->stmt.id == id)
            return &ctx.node->stmt;
    }
    return nullptr;
}

/** Budget-aware predicate driver; anything thrown counts as "rejected". */
class Search
{
  public:
    Search(const FailurePredicate &pred, const ReduceOptions &opts)
        : pred_(pred), opts_(opts), start_(Clock::now())
    {}

    bool
    exhausted()
    {
        if (tripped_)
            return true;
        if (opts_.maxChecks > 0 && checks_ >= opts_.maxChecks) {
            tripped_ = true;
        } else if (opts_.deadlineMs > 0) {
            auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - start_).count();
            if (elapsed >= opts_.deadlineMs)
                tripped_ = true;
        }
        return tripped_;
    }

    bool
    check(const Program &candidate)
    {
        if (exhausted())
            return false;
        ++checks_;
        try {
            return pred_(candidate);
        } catch (...) {
            // A predicate that blows up on a candidate tells us nothing;
            // conservatively keep the larger, known-failing program.
            return false;
        }
    }

    int checks() const { return checks_; }
    bool tripped() const { return tripped_; }

  private:
    const FailurePredicate &pred_;
    const ReduceOptions &opts_;
    Clock::time_point start_;
    int checks_ = 0;
    bool tripped_ = false;
};

/** Complement-style ddmin over statement ids. */
bool
ddminStatements(Program &best, Search &search)
{
    bool changedAny = false;
    std::vector<int> ids = stmtIds(best);
    size_t n = 2;
    while (ids.size() >= 2 && !search.exhausted()) {
        n = std::min(n, ids.size());
        size_t chunk = (ids.size() + n - 1) / n;
        bool reduced = false;
        for (size_t i = 0; i < n && !search.exhausted(); ++i) {
            size_t lo = i * chunk;
            size_t hi = std::min(ids.size(), lo + chunk);
            if (lo >= hi)
                continue;
            std::set<int> drop(ids.begin() + lo, ids.begin() + hi);
            Program cand = buildWithout(best, drop);
            if (search.check(cand)) {
                best = std::move(cand);
                ids = stmtIds(best);
                n = std::max<size_t>(2, n - 1);
                changedAny = reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (n >= ids.size())
                break;
            n = std::min(ids.size(), n * 2);
        }
    }
    return changedAny;
}

/** Replace one loop by its body at the lower-bound iteration. Returns
 *  true when some loop was successfully unwrapped. */
bool
unwrapOnce(Program &best, Search &search)
{
    for (const std::vector<int> &path : loopPaths(best)) {
        if (search.exhausted())
            return false;
        Program cand = best.clone();
        size_t index = 0;
        std::vector<NodePtr> *container = containerAt(cand, path, index);
        Node &loop = *(*container)[index];
        std::vector<NodePtr> body = std::move(loop.body);
        for (NodePtr &child : body)
            substituteVar(*child, loop.var, loop.lb);
        container->erase(container->begin() + index);
        container->insert(container->begin() + index,
                          std::make_move_iterator(body.begin()),
                          std::make_move_iterator(body.end()));
        if (search.check(cand)) {
            best = std::move(cand);
            return true;
        }
    }
    return false;
}

/** Per-statement subscript simplification (all of a statement's
 *  subscripts at once, bounding the number of predicate calls). */
bool
simplifySubscriptsPass(Program &best, Search &search)
{
    bool changedAny = false;
    for (int id : stmtIds(best)) {
        if (search.exhausted())
            break;
        Program cand = best.clone();
        Statement *stmt = findStmt(cand, id);
        bool changed = simplifyRef(stmt->write);
        stmt->rhs = simplifyLoads(stmt->rhs, changed);
        if (changed && search.check(cand)) {
            best = std::move(cand);
            changedAny = true;
        }
    }
    return changedAny;
}

/** Per-statement right-hand-side collapse to the constant 1. */
bool
simplifyRhsPass(Program &best, Search &search)
{
    bool changedAny = false;
    for (int id : stmtIds(best)) {
        if (search.exhausted())
            break;
        Program cand = best.clone();
        Statement *stmt = findStmt(cand, id);
        if (stmt->rhs && stmt->rhs->op == ValOp::Const)
            continue;
        stmt->rhs = Value::makeConst(1.0);
        if (search.check(cand)) {
            best = std::move(cand);
            changedAny = true;
        }
    }
    return changedAny;
}

/** Single-statement removal to a fixpoint; proves 1-minimality when it
 *  completes without the budget tripping. */
bool
oneMinimalPass(Program &best, Search &search, bool &proven)
{
    bool changedAny = false;
    bool restart = true;
    while (restart && !search.exhausted()) {
        restart = false;
        for (int id : stmtIds(best)) {
            if (search.exhausted())
                break;
            Program cand = buildWithout(best, {id});
            if (search.check(cand)) {
                best = std::move(cand);
                changedAny = restart = true;
                break;
            }
        }
    }
    proven = !search.tripped();
    return changedAny;
}

} // namespace

size_t
countIrNodes(const Program &prog)
{
    size_t total = 0;
    for (const NodePtr &n : prog.body)
        total += countNodes(*n);
    return total;
}

ReduceResult
reduceProgram(const Program &input, const FailurePredicate &pred,
              const ReduceOptions &opts)
{
    ReduceResult res;
    res.origNodes = countIrNodes(input);

    Search search(pred, opts);
    Program best = input.clone();

    // The input must itself fail; otherwise there is nothing to minimize.
    if (!search.check(best)) {
        res.program = std::move(best);
        res.checks = search.checks();
        res.finalNodes = res.origNodes;
        res.budgetExhausted = search.tripped();
        return res;
    }
    res.inputFailed = true;

    bool changed = true;
    while (changed && !search.exhausted()) {
        changed = false;
        ++res.rounds;
        changed |= ddminStatements(best, search);
        if (opts.unwrapLoops) {
            while (!search.exhausted() && unwrapOnce(best, search))
                changed = true;
        }
        if (opts.simplifySubscripts)
            changed |= simplifySubscriptsPass(best, search);
        if (opts.simplifyRhs)
            changed |= simplifyRhsPass(best, search);
    }

    oneMinimalPass(best, search, res.oneMinimal);

    res.program = std::move(best);
    res.checks = search.checks();
    res.finalNodes = countIrNodes(res.program);
    res.budgetExhausted = search.tripped();
    return res;
}

} // namespace memoria
