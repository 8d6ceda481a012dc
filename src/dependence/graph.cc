#include "dependence/graph.hh"

#include "dependence/tests.hh"
#include "support/logging.hh"
#include "support/stats.hh"

namespace memoria {

const char *
depTypeName(DepType t)
{
    switch (t) {
      case DepType::Flow:
        return "flow";
      case DepType::Anti:
        return "anti";
      case DepType::Output:
        return "output";
      case DepType::Input:
        return "input";
    }
    return "?";
}

void
splitLex(const DepVector &v, bool allowEq, std::vector<DepVector> &forward,
         std::vector<DepVector> &backward)
{
    // Walk the levels assuming every earlier level chose '='. At each
    // level, the '<' branch yields a forward vector, the '>' branch a
    // backward one, and the '=' branch continues to the next level.
    for (size_t k = 0; k < v.levels.size(); ++k) {
        const DepLevel &l = v.levels[k];
        auto prefixEq = [&](DepVector out, DepLevel decided) {
            for (size_t j = 0; j < k; ++j)
                out.levels[j] = DepLevel::exact(0);
            out.levels[k] = decided;
            return out;
        };
        if (l.canLT()) {
            DepLevel decided =
                l.hasDist ? DepLevel::exact(l.dist) : DepLevel::dir(DirLT);
            forward.push_back(prefixEq(v, decided));
        }
        if (l.canGT()) {
            DepLevel decided =
                l.hasDist ? DepLevel::exact(l.dist) : DepLevel::dir(DirGT);
            backward.push_back(prefixEq(v, decided).reversed());
        }
        if (!l.canEQ())
            return;
    }
    if (allowEq) {
        DepVector eq = v;
        for (auto &l : eq.levels)
            l = DepLevel::exact(0);
        forward.push_back(std::move(eq));
    }
}

DependenceGraph::DependenceGraph(const Program &prog,
                                 std::vector<StmtContext> scope)
    : scope_(std::move(scope))
{
    static obs::Counter &cBuilds = obs::counter("dependence.graph_builds");
    ++cBuilds;
    build(prog);
}

void
DependenceGraph::build(const Program &prog)
{
    // Per-statement occurrence lists, reads first and the write last, so
    // that same-iteration dependences follow evaluation order.
    struct Occ
    {
        int pos;
        const ArrayRef *ref;
        bool isWrite;
        const std::vector<Node *> *loops;
    };
    std::vector<Occ> occs;
    for (size_t p = 0; p < scope_.size(); ++p) {
        const Statement &s = scope_[p].node->stmt;
        auto refs = collectRefs(s);
        // collectRefs returns the write first; reorder reads-then-write.
        for (const auto &r : refs)
            if (!r.isWrite)
                occs.push_back({static_cast<int>(p), r.ref, false,
                                &scope_[p].loops});
        for (const auto &r : refs)
            if (r.isWrite)
                occs.push_back({static_cast<int>(p), r.ref, true,
                                &scope_[p].loops});
    }

    auto addEdges = [&](const Occ &a, const Occ &b, bool same) {
        auto vectors = dependenceVectors(prog, *a.ref, *a.loops, *b.ref,
                                         *b.loops, same);
        for (const auto &v : vectors) {
            std::vector<DepVector> fwd, bwd;
            // The all-equals component is a real (loop-independent)
            // dependence only across distinct occurrences.
            splitLex(v, !same, fwd, bwd);
            auto emit = [&](const Occ &src, const Occ &dst,
                            DepVector vec) {
                DepEdge e;
                e.srcPos = src.pos;
                e.dstPos = dst.pos;
                e.src = &scope_[src.pos].node->stmt;
                e.dst = &scope_[dst.pos].node->stmt;
                e.srcRef = src.ref;
                e.dstRef = dst.ref;
                e.loopIndependent = vec.allEq();
                e.type = src.isWrite
                             ? (dst.isWrite ? DepType::Output
                                            : DepType::Flow)
                             : (dst.isWrite ? DepType::Anti
                                            : DepType::Input);
                e.vec = std::move(vec);
                edges_.push_back(std::move(e));
            };
            for (auto &f : fwd)
                emit(a, b, std::move(f));
            for (auto &r : bwd)
                emit(b, a, std::move(r));
        }
    };

    for (size_t i = 0; i < occs.size(); ++i) {
        // Self pair: a write can depend on itself across iterations.
        if (occs[i].isWrite)
            addEdges(occs[i], occs[i], true);
        for (size_t j = i + 1; j < occs.size(); ++j) {
            if (occs[i].ref->array != occs[j].ref->array)
                continue;
            addEdges(occs[i], occs[j], false);
        }
    }
}

} // namespace memoria
