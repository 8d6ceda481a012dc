/**
 * @file
 * Traversal, rewriting and structural utilities over the loop-nest IR.
 */

#ifndef MEMORIA_IR_WALK_HH
#define MEMORIA_IR_WALK_HH

#include <functional>
#include <vector>

#include "ir/program.hh"

namespace memoria {

/** A reference occurrence inside a statement. */
struct RefOcc
{
    const Statement *stmt = nullptr;
    const ArrayRef *ref = nullptr;
    bool isWrite = false;
};

/** A statement together with its enclosing loops, outermost first. */
struct StmtContext
{
    Node *node = nullptr;               ///< the Stmt node
    std::vector<Node *> loops;          ///< enclosing Loop nodes
};

/** Deep-copy a node tree. */
NodePtr cloneNode(const Node &n);

/** All statements under root (or the whole program), with loop context. */
std::vector<StmtContext> collectStmts(Node *root);
std::vector<StmtContext> collectStmts(Program &prog);

/** All array-reference occurrences in a statement (write + all loads,
 *  including loads buried in opaque subscripts). */
std::vector<RefOcc> collectRefs(const Statement &stmt);

/** All loop nodes under root, preorder. */
std::vector<Node *> collectLoops(Node *root);

/**
 * The maximal perfect-nest chain starting at loop: {loop, its only loop
 * child, ...} while each body consists of exactly one loop. The last
 * element's body holds the statements (and possibly further structure if
 * the nest is imperfect below that point).
 */
std::vector<Node *> perfectChain(Node *loop);

/** Maximum loop-nesting depth of the subtree (loop itself counts as 1). */
int loopDepth(const Node &n);

/** Number of Stmt nodes in the subtree. */
int countStmts(const Node &n);

/** Append the subtree's statement ids to `out`, in program order. */
void collectStmtIds(const Node &n, std::vector<int> &out);

/**
 * Substitute variable `v` by affine expression `e` everywhere in the
 * subtree: loop bounds, affine subscripts, Index leaves and opaque
 * subscript trees. Used by fusion (index renaming) and bound rewriting.
 */
void substituteVar(Node &n, VarId v, const AffineExpr &e);

/** Substitute within a value tree, returning the rewritten tree. */
ValuePtr substituteVarValue(const ValuePtr &val, VarId v,
                            const AffineExpr &e);

/** Substitute within a single statement. */
void substituteVarStmt(Statement &stmt, VarId v, const AffineExpr &e);

/** Structural equality of two array references. */
bool refsEqual(const ArrayRef &a, const ArrayRef &b);

/** Structural equality of two node trees (ids included). */
bool structurallyEqual(const Node &a, const Node &b);

/** Structural equality of two programs' bodies. */
bool structurallyEqual(const Program &a, const Program &b);

/** True when loop variable v is referenced anywhere in the subtree. */
bool usesVar(const Node &n, VarId v);

/** Largest statement id in the program (-1 when empty). */
int maxStmtId(const Program &prog);

/** Assign fresh statement ids to every Stmt node in the subtree. */
void renumberStmtsFrom(Node &n, int &next);

} // namespace memoria

#endif // MEMORIA_IR_WALK_HH
