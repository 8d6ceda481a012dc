/**
 * @file
 * Dependence-based legality tests for the loop transformations.
 *
 * Legality follows the classic rules the paper builds on: a permutation
 * is legal when every permuted dependence vector stays lexicographically
 * non-negative, with the vectors of any reversed loops flipped first;
 * distribution must keep recurrences (dependence cycles)
 * within one partition; fusion must not reverse any inter-nest
 * dependence [War84].
 */

#ifndef MEMORIA_DEPENDENCE_LEGALITY_HH
#define MEMORIA_DEPENDENCE_LEGALITY_HH

#include <vector>

#include "dependence/graph.hh"

namespace memoria {

/**
 * True when permuting the outermost `depth` levels of a perfect nest by
 * `perm` (out[i] = original level perm[i]) keeps every constraining
 * dependence lexicographically non-negative.
 */
bool permutationLegal(const std::vector<DepEdge> &edges,
                      const std::vector<int> &perm);

/**
 * The dependences after reversing the loops at original `levels`: each
 * such level of every vector flips direction. A reversal-enabled
 * permutation is legal when permutationLegal holds on these edges.
 */
std::vector<DepEdge>
edgesWithReversedLevels(const std::vector<DepEdge> &edges,
                        const std::vector<int> &levels);

/**
 * True when the edge is definitely carried at a level shallower than
 * `level` (0-based) — such edges are dropped when building the
 * recurrence graph for distribution of the loop at `level`.
 */
bool definitelyCarriedBefore(const DepEdge &edge, int level);

} // namespace memoria

#endif // MEMORIA_DEPENDENCE_LEGALITY_HH
