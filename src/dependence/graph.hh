/**
 * @file
 * Dependence graph over the statements of a scope.
 *
 * The graph holds every data dependence — flow, anti, output and input —
 * because the locality model's RefGroup algorithm needs input (read-read)
 * dependences to detect group-temporal reuse, while the transformation
 * legality tests use only the value-based kinds.
 */

#ifndef MEMORIA_DEPENDENCE_GRAPH_HH
#define MEMORIA_DEPENDENCE_GRAPH_HH

#include <vector>

#include "dependence/vector.hh"
#include "ir/program.hh"
#include "ir/walk.hh"

namespace memoria {

/** Kind of data dependence. */
enum class DepType { Flow, Anti, Output, Input };

/** Printable name of a dependence type. */
const char *depTypeName(DepType t);

/** One dependence edge between two reference occurrences. */
struct DepEdge
{
    /** Positions of source/sink statements in the scope (textual). */
    int srcPos = -1;
    int dstPos = -1;

    const Statement *src = nullptr;
    const Statement *dst = nullptr;
    const ArrayRef *srcRef = nullptr;
    const ArrayRef *dstRef = nullptr;

    DepType type = DepType::Flow;

    /** Vector over the common loops of src and dst, outermost first.
     *  Guaranteed not maybe-negative (backward vectors are reversed and
     *  re-attributed during construction). */
    DepVector vec;

    /** All-equals vector: same-iteration dependence. */
    bool loopIndependent = false;

    /** True for flow/anti/output (the kinds that constrain reordering). */
    bool
    constrains() const
    {
        return type != DepType::Input;
    }
};

/**
 * Dependence graph for a list of statements in document order.
 *
 * The scope is typically the statements of one loop nest, a pair of
 * adjacent nests (for fusion), or a whole program.
 */
class DependenceGraph
{
  public:
    DependenceGraph(const Program &prog, std::vector<StmtContext> scope);

    const std::vector<DepEdge> &edges() const { return edges_; }
    const std::vector<StmtContext> &scope() const { return scope_; }

  private:
    void build(const Program &prog);

    std::vector<StmtContext> scope_;
    std::vector<DepEdge> edges_;
};

/**
 * Split a possibly-ambiguous dependence vector into forward vectors
 * (source precedes sink) and backward vectors (already reversed so they
 * read sink-to-source). The all-equals component goes forward when
 * `allowEq` is set.
 */
void splitLex(const DepVector &v, bool allowEq,
              std::vector<DepVector> &forward,
              std::vector<DepVector> &backward);

} // namespace memoria

#endif // MEMORIA_DEPENDENCE_GRAPH_HH
