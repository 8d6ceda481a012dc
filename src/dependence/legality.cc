#include "dependence/legality.hh"

namespace memoria {

bool
permutationLegal(const std::vector<DepEdge> &edges,
                 const std::vector<int> &perm)
{
    size_t depth = perm.size();
    for (const auto &e : edges) {
        if (!e.constrains())
            continue;
        DepVector v = e.vec;
        if (v.levels.size() < depth)
            continue;  // not governed by this nest's full chain
        DepVector permuted;
        permuted.levels.reserve(v.levels.size());
        for (size_t i = 0; i < depth; ++i)
            permuted.levels.push_back(v.levels[perm[i]]);
        for (size_t i = depth; i < v.levels.size(); ++i)
            permuted.levels.push_back(v.levels[i]);
        if (permuted.maybeNegative())
            return false;
    }
    return true;
}

std::vector<DepEdge>
edgesWithReversedLevels(const std::vector<DepEdge> &edges,
                        const std::vector<int> &levels)
{
    std::vector<DepEdge> out = edges;
    for (auto &e : out)
        for (int l : levels)
            if (l < static_cast<int>(e.vec.levels.size()))
                e.vec = e.vec.withLevelReversed(l);
    return out;
}

bool
definitelyCarriedBefore(const DepEdge &edge, int level)
{
    for (int k = 0; k < level &&
                    k < static_cast<int>(edge.vec.levels.size()); ++k) {
        if (!edge.vec.levels[k].canEQ())
            return true;
    }
    return false;
}

} // namespace memoria
