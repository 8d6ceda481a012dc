/**
 * @file
 * Flat arena form of the loop-nest IR.
 *
 * The tree IR (ir/program.hh) is built for transformation: shared
 * immutable Value spines, unique_ptr node forests, std::function-driven
 * affine evaluation. All of that is pointer chasing on the hot path.
 * ProgramArena flattens one Program into index-based structure-of-arrays
 * pools — affine terms, subscripts, references, value nodes, statements
 * and loop nodes each live in one contiguous vector, and every
 * cross-reference is a 32-bit index instead of a pointer.
 *
 * The arena is the input to the bytecode compiler (interp/tape.hh); it
 * is also independently useful as a cache-friendly read-only snapshot
 * (children of a node are contiguous, value kids sit near their
 * parents). `toProgram()` reconstructs an equivalent tree program,
 * which the test suite uses to prove the flattening is lossless.
 *
 * Construction is linear in the size of the IR and performs no
 * per-element allocation beyond the pool vectors themselves.
 */

#ifndef MEMORIA_SRC_INTERP_ARENA_HH
#define MEMORIA_SRC_INTERP_ARENA_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ir/program.hh"

namespace memoria {

/** Index of an entity in one of the arena pools; -1 means "none". */
using ArenaId = int32_t;

constexpr ArenaId kNoArena = -1;

class ProgramArena
{
  public:
    /** Affine expression: terms_[firstTerm..) plus a constant. */
    struct Affine
    {
        int32_t firstTerm = 0;
        int32_t termCount = 0;
        int64_t constant = 0;
    };

    /** One affine term: coeff * var. */
    struct Term
    {
        VarId var = kNoVar;
        int64_t coeff = 0;
    };

    /** One subscript: affine expression or opaque value, never both. */
    struct Sub
    {
        ArenaId affine = kNoArena;  ///< valid when opaque is kNoArena
        ArenaId opaque = kNoArena;  ///< value id when unanalyzable
    };

    /** A subscripted array reference; subs are contiguous. */
    struct Ref
    {
        ArrayId array = -1;
        int32_t firstSub = 0;
        int32_t subCount = 0;
    };

    /** One value node. Kids are value ids (at most two per ValOp). */
    struct Val
    {
        ValOp op = ValOp::Const;
        double constant = 0.0;       ///< Const
        ArenaId index = kNoArena;    ///< Index: affine id
        ArenaId ref = kNoArena;      ///< Load: ref id
        ArenaId kid0 = kNoArena;
        ArenaId kid1 = kNoArena;
    };

    /** One assignment statement. */
    struct Stmt
    {
        int id = -1;
        ArenaId write = kNoArena;  ///< ref id
        ArenaId rhs = kNoArena;    ///< value id
    };

    /** A loop or statement node. Children are contiguous ids in
     *  childIndex(). */
    struct Node
    {
        bool isLoop = false;
        // Loop fields.
        VarId var = kNoVar;
        ArenaId lb = kNoArena;  ///< affine id
        ArenaId ub = kNoArena;  ///< affine id
        int64_t step = 1;
        int32_t firstChild = 0;
        int32_t childCount = 0;
        // Statement field.
        ArenaId stmt = kNoArena;
    };

    /** Array declaration with extents as affine ids. */
    struct Array
    {
        int32_t firstExtent = 0;
        int32_t extentCount = 0;
        int elemSize = 8;
        bool isRegister = false;
    };

    /** Flatten `prog`. The arena BORROWS the program's symbol tables
     *  (variables, array declarations, name) — the program must
     *  outlive the arena. Copying the tables per construction was
     *  measurable: verification-heavy workloads build an arena per
     *  interpreter pass, and corpus programs carry hundreds of array
     *  declarations. */
    explicit ProgramArena(const Program &prog);

    // Pool accessors (read-only views).
    const std::vector<Affine> &affines() const { return affines_; }
    const std::vector<Term> &terms() const { return terms_; }
    const std::vector<Sub> &subs() const { return subs_; }
    const std::vector<Ref> &refs() const { return refs_; }
    const std::vector<Val> &vals() const { return vals_; }
    const std::vector<Stmt> &stmts() const { return stmts_; }
    const std::vector<Node> &nodes() const { return nodes_; }
    const std::vector<Array> &arrays() const { return arrayRecs_; }
    /** Extent affine ids, indexed via Array::firstExtent. */
    const std::vector<ArenaId> &extentIds() const { return extentIds_; }
    /** Child node ids, indexed via Node::firstChild. */
    const std::vector<ArenaId> &childIndex() const { return children_; }
    /** Top-level node ids, in program order. */
    const std::vector<ArenaId> &roots() const { return roots_; }

    /** Borrowed symbol tables (see the constructor note). */
    const std::vector<VarInfo> &vars() const { return src_->vars; }
    const std::vector<ArrayDecl> &arrayDecls() const
    {
        return src_->arrays;
    }
    const std::string &name() const { return src_->name; }

    /** Evaluate affine `id` over a variable environment vector. */
    int64_t
    evalAffine(ArenaId id, const int64_t *env) const
    {
        const Affine &a = affines_[id];
        int64_t r = a.constant;
        const Term *t = terms_.data() + a.firstTerm;
        for (int32_t i = 0; i < a.termCount; ++i)
            r += t[i].coeff * env[t[i].var];
        return r;
    }

    /** Reconstruct the AffineExpr for pool entry `id`. */
    AffineExpr affineExpr(ArenaId id) const;

    /** Rebuild an equivalent tree Program (round-trip check). */
    Program toProgram() const;

  private:
    ArenaId addAffine(const AffineExpr &e);
    ArenaId addRef(const ArrayRef &ref);
    ArenaId addValue(const ValuePtr &v);
    ArenaId addNode(const ::memoria::Node &n);

    // Reconstruction helpers for toProgram().
    ArrayRef refExpr(ArenaId id) const;
    ValuePtr valueExpr(ArenaId id) const;
    NodePtr nodeExpr(ArenaId id) const;

    const Program *src_;

    std::vector<Affine> affines_;
    std::vector<Term> terms_;
    std::vector<Sub> subs_;
    std::vector<Ref> refs_;
    std::vector<Val> vals_;
    std::vector<Stmt> stmts_;
    std::vector<Node> nodes_;
    std::vector<Array> arrayRecs_;
    std::vector<ArenaId> extentIds_;
    std::vector<ArenaId> children_;
    std::vector<ArenaId> roots_;

    /** Values are shared DAGs; intern so the arena stays linear. */
    std::unordered_map<const Value *, ArenaId> valueMemo_;
};

} // namespace memoria

#endif // MEMORIA_SRC_INTERP_ARENA_HH
