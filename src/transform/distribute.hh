/**
 * @file
 * Loop distribution (Section 4.4, Figure 5).
 *
 * Distribution splits the body of a loop into multiple loops with
 * identical headers, keeping every recurrence (dependence cycle) within
 * one partition. Memoria uses it purely as an enabler: a nest that
 * cannot be permuted into memory order is distributed at the deepest
 * possible level, and the resulting finer nests are permuted
 * individually (the Cholesky example of Figure 7).
 */

#ifndef MEMORIA_TRANSFORM_DISTRIBUTE_HH
#define MEMORIA_TRANSFORM_DISTRIBUTE_HH

#include <vector>

#include "ir/program.hh"
#include "model/params.hh"

namespace memoria {

class DependenceGraph;

/** Outcome of one Distribute invocation. */
struct DistributeResult
{
    /** Distribution was performed. */
    bool distributed = false;

    /** Number of nests the distributed loop became (Table 2, R). */
    int resultingNests = 0;

    /** Some resulting nest reached (or improved toward) memory order. */
    bool memoryOrderAchieved = false;

    /** The distributed loop was the nest root (the copies are now
     *  siblings in the owner body). */
    bool splitTopLevel = false;
};

/**
 * Partition the body items of `loop` into the finest groups that keep
 * recurrences together (Tarjan SCC over the items), considering only
 * dependences not definitely carried above `loopLevel`. `graph` must
 * cover the statements under `loop`. Returns the partitions as lists
 * of item indices in a dependence-respecting order (min-index-first
 * Kahn), or an empty vector when no split is possible.
 */
std::vector<std::vector<int>>
distributionPartitions(const DependenceGraph &graph, const Node &loop,
                       int loopLevel);

/**
 * Try to enable memory order for the nest at ownerBody[index] through
 * the minimal distribution (Figure 5): test the deepest loop level
 * first, working outward; commit the first distribution for which some
 * resulting partition can be permuted with its inner loop in memory
 * order. The resulting nests are permuted as part of the commit.
 *
 * `enclosing` is the loop context around ownerBody (outermost first).
 */
DistributeResult
distributeForMemoryOrder(const Program &prog,
                         std::vector<NodePtr> &ownerBody, size_t index,
                         const std::vector<Node *> &enclosing,
                         const ModelParams &params);

} // namespace memoria

#endif // MEMORIA_TRANSFORM_DISTRIBUTE_HH
