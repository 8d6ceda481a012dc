/**
 * @file
 * The Memoria loop-nest intermediate representation.
 *
 * A Program is a forest of Nodes; a Node is either a DO loop (index
 * variable, affine lower/upper bounds, integer step, body) or an
 * assignment Statement writing one array element. Statements carry a full
 * evaluable right-hand-side expression tree so that transformed programs
 * can be *executed* and checked against the originals, not merely
 * analyzed.
 *
 * This is the representation level at which the paper's algorithms
 * (RefGroup / LoopCost / Permute / Fuse / Distribute / Compound) are
 * defined; a Fortran front end would lower to exactly this.
 */

#ifndef MEMORIA_IR_PROGRAM_HH
#define MEMORIA_IR_PROGRAM_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/expr.hh"
#include "support/poly.hh"

namespace memoria {

/** Index of an array in a Program's array table. */
using ArrayId = int32_t;

class Value;

/** Values are immutable and shared; rewrites rebuild affected spines. */
using ValuePtr = std::shared_ptr<const Value>;

struct ArrayRef;

/**
 * One subscript position of an array reference.
 *
 * Affine subscripts are analyzable by the dependence tests and the cost
 * model. An *opaque* subscript (index arrays as in Cgm, symbolic
 * linearized subscripts as in Mg3d) still evaluates at run time through
 * its Value tree, but analyses must treat it conservatively — exactly the
 * imprecision Section 5.3 of the paper describes.
 */
struct Subscript
{
    /** Valid when opaque is null. */
    AffineExpr affine;

    /** Non-null marks the subscript unanalyzable; evaluated at run time. */
    ValuePtr opaque;

    Subscript() = default;
    Subscript(AffineExpr e) : affine(std::move(e)) {}

    bool isAffine() const { return opaque == nullptr; }

    /** An opaque subscript computed by the given value tree. */
    static Subscript makeOpaque(ValuePtr v);
};

/** A subscripted array reference, e.g. A(I, K+1). Subscripts are 1-based
 *  Fortran style; arrays are column-major. */
struct ArrayRef
{
    ArrayId array = -1;
    std::vector<Subscript> subs;

    /** True when every subscript is affine. */
    bool isAffine() const;
};

/** Operations in statement right-hand sides. */
enum class ValOp
{
    Const,  ///< floating constant
    Load,   ///< read of an array element
    Index,  ///< current value of an affine expression over variables
    Add, Sub, Mul, Div, Neg, Sqrt, Min, Max,
    IMod,   ///< integer modulus of the (rounded) operands
};

/**
 * Immutable evaluable expression node.
 *
 * Loads embed their ArrayRef directly, so "the reads of a statement" is a
 * derived property (walk the tree), and renaming an index variable
 * rewrites bounds, subscripts and Index leaves uniformly.
 */
class Value
{
  public:
    ValOp op = ValOp::Const;
    double constant = 0.0;  ///< for Const
    ArrayRef load;          ///< for Load
    AffineExpr index;       ///< for Index
    std::vector<ValuePtr> kids;

    static ValuePtr makeConst(double c);
    static ValuePtr makeLoad(ArrayRef ref);
    static ValuePtr makeIndex(AffineExpr e);
    static ValuePtr make(ValOp op, std::vector<ValuePtr> kids);
};

/** One assignment statement: write(subscripts) = rhs. */
struct Statement
{
    /** Unique id within the program; stable across transformations. */
    int id = -1;

    ArrayRef write;
    ValuePtr rhs;
};

struct Node;
using NodePtr = std::unique_ptr<Node>;

/**
 * A loop or a statement.
 *
 * One tagged struct rather than a class hierarchy: the IR is small, and
 * uniform traversal/cloning matters more than per-kind vtables.
 */
struct Node
{
    enum class Kind { Loop, Stmt };

    Kind kind = Kind::Stmt;

    // --- Loop fields (kind == Loop) ---
    VarId var = kNoVar;
    AffineExpr lb;
    AffineExpr ub;
    int64_t step = 1;
    std::vector<NodePtr> body;

    // --- Statement field (kind == Stmt) ---
    Statement stmt;

    bool isLoop() const { return kind == Kind::Loop; }
    bool isStmt() const { return kind == Kind::Stmt; }

    static NodePtr makeLoop(VarId var, AffineExpr lb, AffineExpr ub,
                            int64_t step, std::vector<NodePtr> body);
    static NodePtr makeStmt(Statement stmt);
};

/** Kind of a program variable. */
enum class VarKind { LoopVar, Param };

/** A named variable: loop index or symbolic size parameter. */
struct VarInfo
{
    std::string name;
    VarKind kind = VarKind::LoopVar;

    /** Concrete value bound at execution time (Param only). */
    int64_t paramValue = 0;

    /**
     * Symbolic size of the parameter for the cost model: typically the
     * abstract symbol n (Poly::sym()), or a constant Poly for genuinely
     * small dimensions (e.g. the 5x5 leading dimensions in Applu).
     */
    Poly paramPoly;
};

/** Largest element size in bytes a valid program declares: the tape
 *  stores it in 16 bits. validateProgram rejects anything larger. */
constexpr int kMaxElemSize = 65535;

/** A declared array: name, per-dimension extents, element size.
 *  Rank-0 arrays (no extents) act as scalars. */
struct ArrayDecl
{
    std::string name;
    std::vector<AffineExpr> extents;
    int elemSize = 8;

    /**
     * Register-allocated storage: accesses cost no memory traffic.
     * Scalar replacement (framework step 3, [CCK90]) promotes
     * loop-invariant array references into rank-0 register arrays.
     */
    bool isRegister = false;
};

/** A whole program: symbol tables plus a forest of top-level nodes. */
struct Program
{
    std::string name;
    std::vector<VarInfo> vars;
    std::vector<ArrayDecl> arrays;
    std::vector<NodePtr> body;

    const VarInfo &varInfo(VarId v) const { return vars.at(v); }
    const std::string &varName(VarId v) const { return vars.at(v).name; }
    const ArrayDecl &arrayDecl(ArrayId a) const { return arrays.at(a); }

    /** Deep copy (fresh Node trees; Values are shared, being immutable). */
    Program clone() const;
};

} // namespace memoria

#endif // MEMORIA_IR_PROGRAM_HH
