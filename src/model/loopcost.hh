/**
 * @file
 * RefCost / LoopCost / MemoryOrder (Figure 1 and Section 4.1).
 *
 * NestAnalysis evaluates one loop nest (perfect or imperfect): for every
 * loop l in the nest it computes LoopCost(l), the number of cache lines
 * accessed when l is placed innermost, and ranks the loops into *memory
 * order* — outermost to innermost by decreasing LoopCost. Costs are
 * polynomials in the abstract size symbol n (see support/poly.hh), and
 * the ordering compares dominating terms as the paper prescribes.
 */

#ifndef MEMORIA_MODEL_LOOPCOST_HH
#define MEMORIA_MODEL_LOOPCOST_HH

#include <map>
#include <vector>

#include "dependence/graph.hh"
#include "ir/program.hh"
#include "model/params.hh"
#include "model/refgroup.hh"
#include "model/trip.hh"

namespace memoria {

/** Self-reuse classification of a reference w.r.t. a candidate loop. */
enum class Reuse
{
    Invariant,    ///< no subscript uses the loop: 1 line
    Consecutive,  ///< unit/small stride in the first subscript only
    None,         ///< a new line every iteration
};

/** Printable name of a reuse class. */
const char *reuseName(Reuse r);

/**
 * Locality analysis of one loop nest.
 *
 * The scope is the subtree rooted at a loop; dependences, reference
 * groups and costs are all computed within it. Outer loops (e.g. a
 * timestep loop around the nest) can be registered so that symbolic
 * bounds referencing their variables resolve.
 */
class NestAnalysis
{
  public:
    NestAnalysis(const Program &prog, Node *root, ModelParams params,
                 const std::vector<Node *> &outerLoops = {});

    /** All loops in the nest, preorder (root first). */
    const std::vector<Node *> &loops() const { return loops_; }

    /** All reference occurrences in the nest. */
    const std::vector<NestRef> &refs() const { return refs_; }

    /** The dependence graph of the nest's statements. */
    const DependenceGraph &graph() const { return graph_; }

    /** Reference groups with respect to a candidate loop. */
    const std::vector<RefGroup> &groups(const Node *candidate) const;

    /** Reference groups restricted to one statement sub-nest. */
    struct ScopedGroups
    {
        /** Indices into refs() of the sub-nest's references. */
        std::vector<int> refIndices;
        /** Groups whose members index into refIndices. */
        std::vector<RefGroup> groups;
    };

    /**
     * Reference groups computed among only the references whose
     * innermost loop is `inner` — the paper's per-nest evaluation when
     * costing imperfect structures (e.g. the two K nests of Figure 3
     * are grouped independently before their LoopCosts are added).
     */
    const ScopedGroups &groupsWithin(const Node *candidate,
                                     const Node *inner) const;

    /** RefCost of one reference when `candidate` is innermost. */
    Poly refCost(const NestRef &ref, const Node *candidate) const;

    /** Reuse class of one reference w.r.t. `candidate`. */
    Reuse classify(const NestRef &ref, const Node *candidate) const;

    /** LoopCost(candidate): cache lines accessed with it innermost. */
    Poly loopCost(const Node *candidate) const;

    /**
     * Memory order: the nest's loops sorted outermost-to-innermost by
     * decreasing LoopCost (ties keep the original loop order). Computed
     * on first use and cached with the analysis.
     */
    const std::vector<Node *> &memoryOrder() const;

    /** Analyses constructed so far on the calling thread (a per-nest
     *  work count that stays exact under the batch pool). */
    static uint64_t constructedOnThisThread();

    /** Symbolic trip count of a loop in this nest's context. */
    Poly trip(const Node *loop) const { return tripModel_.trip(loop); }

    const ModelParams &params() const { return params_; }

  private:
    const Program &prog_;
    ModelParams params_;
    Node *root_;
    std::vector<Node *> loops_;
    std::vector<NestRef> refs_;
    DependenceGraph graph_;
    TripModel tripModel_;
    /** Candidate-independent state for one statement sub-nest: the
     *  subset of refs_ bottoming out at `inner` plus its spatial
     *  pairs, computed once and shared across every candidate loop. */
    struct ScopedRefs
    {
        std::vector<int> refIndices;
        std::vector<NestRef> subset;
        std::vector<SpatialPair> spatial;
    };
    const ScopedRefs &scopedRefs(const Node *inner) const;
    const std::vector<SpatialPair> &spatialPairs() const;

    mutable std::map<const Node *, std::vector<RefGroup>> groupCache_;
    mutable std::map<std::pair<const Node *, const Node *>, ScopedGroups>
        scopedCache_;
    mutable std::map<const Node *, Poly> costCache_;
    mutable std::map<const Node *, ScopedRefs> scopedRefsCache_;
    mutable bool memoryOrderReady_ = false;
    mutable std::vector<Node *> memoryOrder_;
    mutable bool spatialReady_ = false;
    mutable std::vector<SpatialPair> spatialPairs_;
};

/**
 * Cache-line cost of the nest as currently ordered: the sum, over the
 * loops that directly contain statements, of the group costs with that
 * loop as the (actual) innermost.
 */
Poly nestCost(const NestAnalysis &na);

/**
 * The "ideal" cost of Section 5.2: every statement gets the innermost
 * loop that minimizes its groups' cost, ignoring legality.
 */
Poly idealNestCost(const NestAnalysis &na);

/** True when the cheapest-cost loop is an innermost loop already. */
bool innermostInMemoryOrder(const NestAnalysis &na);

/** True when the nest's loop order equals memory order. */
bool nestInMemoryOrder(const NestAnalysis &na);

} // namespace memoria

#endif // MEMORIA_MODEL_LOOPCOST_HH
