#include "transform/distribute.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "dependence/graph.hh"
#include "dependence/legality.hh"
#include "harness/budget.hh"
#include "harness/fault.hh"
#include "model/loopcost.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"
#include "transform/permute.hh"

namespace memoria {

namespace {

harness::FaultSite gDistributeFault("transform.distribute");

/** A loop found at a given level, with the path from the trial root. */
struct LevelLoop
{
    Node *loop = nullptr;
    std::vector<Node *> pathLoops;  ///< loops above it inside the trial
};

void
findLoopsAtLevel(Node *n, int level, std::vector<Node *> &path,
                 std::vector<LevelLoop> &out)
{
    if (!n->isLoop())
        return;
    if (level == 0) {
        out.push_back({n, path});
        return;
    }
    path.push_back(n);
    for (auto &kid : n->body)
        findLoopsAtLevel(kid.get(), level - 1, path, out);
    path.pop_back();
}

} // namespace

std::vector<std::vector<int>>
distributionPartitions(const DependenceGraph &graph, const Node &loop,
                       int loopLevel)
{
    int k = static_cast<int>(loop.body.size());
    if (k < 2)
        return {};

    // Map statement ids to body-item indices.
    std::map<int, int> itemOf;
    for (int i = 0; i < k; ++i) {
        std::vector<int> ids;
        collectStmtIds(*loop.body[i], ids);
        for (int id : ids)
            itemOf[id] = i;
    }

    // Item-level adjacency from the kept dependences.
    std::vector<std::set<int>> adj(k);
    for (const auto &e : graph.edges()) {
        if (!e.constrains())
            continue;
        auto is = itemOf.find(e.src->id);
        auto id = itemOf.find(e.dst->id);
        if (is == itemOf.end() || id == itemOf.end())
            continue;
        if (definitelyCarriedBefore(e, loopLevel))
            continue;  // enforced by the shared outer loops
        if (is->second != id->second)
            adj[is->second].insert(id->second);
    }

    // Tarjan SCC over the k items.
    std::vector<int> index(k, -1), low(k, 0), comp(k, -1);
    std::vector<bool> onStack(k, false);
    std::vector<int> stack;
    int counter = 0, ncomp = 0;
    std::function<void(int)> dfs = [&](int v) {
        index[v] = low[v] = counter++;
        stack.push_back(v);
        onStack[v] = true;
        for (int w : adj[v]) {
            if (index[w] < 0) {
                dfs(w);
                low[v] = std::min(low[v], low[w]);
            } else if (onStack[w]) {
                low[v] = std::min(low[v], index[w]);
            }
        }
        if (low[v] == index[v]) {
            int w;
            do {
                w = stack.back();
                stack.pop_back();
                onStack[w] = false;
                comp[w] = ncomp;
            } while (w != v);
            ++ncomp;
        }
    };
    for (int v = 0; v < k; ++v)
        if (index[v] < 0)
            dfs(v);

    if (ncomp < 2)
        return {};

    // Kahn's algorithm over the condensation, preferring the component
    // containing the smallest original item index (stable output).
    std::vector<std::vector<int>> members(ncomp);
    for (int v = 0; v < k; ++v)
        members[comp[v]].push_back(v);
    std::vector<std::set<int>> cadj(ncomp);
    std::vector<int> indeg(ncomp, 0);
    for (int v = 0; v < k; ++v) {
        for (int w : adj[v]) {
            if (comp[v] != comp[w] && cadj[comp[v]].insert(comp[w]).second)
                ++indeg[comp[w]];
        }
    }
    auto minItem = [&](int c) { return members[c].front(); };
    std::vector<std::vector<int>> order;
    std::set<std::pair<int, int>> ready;  // (min item, comp)
    for (int c = 0; c < ncomp; ++c)
        if (indeg[c] == 0)
            ready.insert({minItem(c), c});
    while (!ready.empty()) {
        auto [mi, c] = *ready.begin();
        ready.erase(ready.begin());
        order.push_back(members[c]);
        for (int w : cadj[c])
            if (--indeg[w] == 0)
                ready.insert({minItem(w), w});
    }
    MEMORIA_ASSERT(static_cast<int>(order.size()) == ncomp,
                   "condensation is cyclic");
    return order;
}

DistributeResult
distributeForMemoryOrder(const Program &prog,
                         std::vector<NodePtr> &ownerBody, size_t index,
                         const std::vector<Node *> &enclosing,
                         const ModelParams &params)
{
    gDistributeFault.fireNoDiag();
    harness::poll("transform.distribute");

    DistributeResult result;
    Node *root = ownerBody[index].get();
    if (!root->isLoop())
        return result;
    int m = loopDepth(*root);
    if (m < 2)
        return result;

    static obs::Counter &cInvocations =
        obs::counter("pass.distribute.invocations");
    static obs::Counter &cTrials = obs::counter("pass.distribute.trials");
    ++cInvocations;

    // Deepest distributable level first (Figure 5: j = m-1 down to 1,
    // i.e. 0-based loop level m-2 down to 0).
    for (int jz = m - 2; jz >= 0; --jz) {
        // Count candidate loops at this level on the real tree so each
        // gets a fresh trial.
        std::vector<Node *> path;
        std::vector<LevelLoop> realCands;
        findLoopsAtLevel(root, jz, path, realCands);

        for (size_t c = 0; c < realCands.size(); ++c) {
            // Work on a detached clone of the whole nest.
            std::vector<NodePtr> trialTop;
            trialTop.push_back(cloneNode(*root));
            std::vector<Node *> tpath;
            std::vector<LevelLoop> trialCands;
            findLoopsAtLevel(trialTop[0].get(), jz, tpath, trialCands);
            LevelLoop &cand = trialCands[c];

            ++cTrials;
            DependenceGraph graph(prog,
                                  collectStmts(trialTop[0].get()));
            auto parts = distributionPartitions(graph, *cand.loop, jz);
            if (parts.empty()) {
                if (obs::tracingEnabled()) {
                    obs::traceEvent("pass.distribute", "trial",
                                    {{"level", jz},
                                     {"committed", false},
                                     {"reason", "single_recurrence"}});
                }
                continue;
            }

            // Build one copy of the loop per partition.
            std::vector<NodePtr> copies;
            for (const auto &part : parts) {
                std::vector<NodePtr> body;
                for (int item : part)
                    body.push_back(std::move(cand.loop->body[item]));
                copies.push_back(Node::makeLoop(cand.loop->var,
                                                cand.loop->lb,
                                                cand.loop->ub,
                                                cand.loop->step,
                                                std::move(body)));
            }

            // Splice the copies where the loop was.
            std::vector<Node *> copyPtrs;
            if (jz == 0) {
                trialTop.clear();
                for (auto &cp : copies) {
                    copyPtrs.push_back(cp.get());
                    trialTop.push_back(std::move(cp));
                }
            } else {
                Node *parent = cand.pathLoops.back();
                auto slot = std::find_if(
                    parent->body.begin(), parent->body.end(),
                    [&](const NodePtr &p) { return p.get() == cand.loop; });
                MEMORIA_ASSERT(slot != parent->body.end(),
                               "distributed loop lost its parent");
                size_t pos = slot - parent->body.begin();
                parent->body.erase(slot);
                for (auto &cp : copies) {
                    copyPtrs.push_back(cp.get());
                    parent->body.insert(parent->body.begin() + pos++,
                                        std::move(cp));
                }
            }

            // Permute each resulting nest; success when some partition
            // reaches memory order (whole chain or at least the inner
            // loop, Section 4.4 / 4.5).
            bool achieved = false;
            for (Node *copy : copyPtrs) {
                std::vector<Node *> outer = enclosing;
                for (Node *p : cand.pathLoops)
                    outer.push_back(p);
                NestAnalysis na(prog, copy, params, outer);
                PermuteResult pr = permuteToMemoryOrder(na, copy);
                // Distribution is justified only when it *enabled* a
                // permutation: an untouched partition that was already
                // in memory order does not count.
                if (pr.changed &&
                    (pr.achievedMemoryOrder || pr.innerInMemoryOrder))
                    achieved = true;
            }
            if (!achieved) {
                if (obs::tracingEnabled()) {
                    obs::traceEvent(
                        "pass.distribute", "trial",
                        {{"level", jz},
                         {"partitions", parts.size()},
                         {"committed", false},
                         {"reason", "no_permutation_enabled"}});
                }
                continue;  // trial discarded; try the next candidate
            }

            // Commit the trial.
            result.distributed = true;
            result.resultingNests = static_cast<int>(copyPtrs.size());
            result.memoryOrderAchieved = true;
            result.splitTopLevel = (jz == 0);
            ++obs::counter("pass.distribute.committed");
            obs::counter("pass.distribute.resulting_nests") +=
                static_cast<uint64_t>(copyPtrs.size());
            if (obs::tracingEnabled()) {
                obs::traceEvent("pass.distribute", "trial",
                                {{"level", jz},
                                 {"partitions", parts.size()},
                                 {"committed", true}});
            }
            ownerBody.erase(ownerBody.begin() + index);
            for (size_t t = 0; t < trialTop.size(); ++t)
                ownerBody.insert(ownerBody.begin() + index + t,
                                 std::move(trialTop[t]));
            return result;
        }
    }
    return result;
}

} // namespace memoria
