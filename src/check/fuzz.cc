#include "check/fuzz.hh"

#include <string>
#include <vector>

#include "ir/builder.hh"
#include "support/rng.hh"

namespace memoria {

namespace {

/**
 * Grammar-directed generator. All randomness flows through one Rng, so
 * a (seed, options) pair fully determines the program.
 *
 * In-bounds construction: loop variables range over [1, N] (triangular
 * bounds only narrow that), subscripts are `var + d` with
 * d in [0, 2*maxShift], and every array extent is N + 2*maxShift — so
 * no generated subscript can leave its dimension. Constants are
 * integers or dyadic fractions, which print and re-parse exactly.
 */
class Generator
{
  public:
    Generator(uint64_t seed, const FuzzOptions &opts)
        : rng_(seed * 0x9e3779b97f4a7c15ULL + 1),
          opts_(opts),
          b_("fuzz" + std::to_string(seed))
    {
    }

    Program
    run()
    {
        n_ = b_.param("N", opts_.paramValue);
        pad_ = 2 * opts_.maxShift;

        int numArrays =
            static_cast<int>(rng_.range(1, opts_.maxArrays));
        for (int a = 0; a < numArrays; ++a) {
            int rank = static_cast<int>(rng_.range(1, 3));
            std::vector<Ix> extents;
            for (int d = 0; d < rank; ++d)
                extents.push_back(Ix(n_) + pad_);
            std::string name = "A";
            name += std::to_string(a);
            arrays_.push_back(b_.array(name, std::move(extents)));
            ranks_.push_back(rank);
        }
        if (rng_.chance(1, 8)) {
            arrays_.push_back(b_.array("S", {}));
            ranks_.push_back(0);
        }

        int nests = static_cast<int>(rng_.range(1, opts_.maxNests));
        for (int t = 0; t < nests; ++t) {
            int depth = static_cast<int>(rng_.range(1, opts_.maxDepth));
            std::vector<Var> active;
            b_.add(genLoop(depth, active));
        }
        return b_.finish();
    }

  private:
    Var
    freshLoopVar()
    {
        static const char *base[] = {"I", "J", "K", "L", "M", "P"};
        std::string name;
        if (nextVar_ < 6)
            name = base[nextVar_];
        else
            name = std::string(base[nextVar_ % 6]) +
                   std::to_string(nextVar_ / 6 + 1);
        ++nextVar_;
        return b_.loopVar(name);
    }

    /** A loop of the given remaining depth; `active` lists enclosing
     *  loop variables (for triangular bounds and subscripts). */
    NodePtr
    genLoop(int depth, std::vector<Var> &active)
    {
        Var v = freshLoopVar();
        Ix lb(1), ub(n_);
        int64_t step = 1;
        if (opts_.allowTriangular && !active.empty() &&
            rng_.chance(1, 4)) {
            Var outer = active[rng_.below(active.size())];
            if (rng_.chance(1, 2))
                lb = Ix(outer);  // DO v = outer, N
            else
                ub = Ix(outer);  // DO v = 1, outer
        } else if (opts_.allowNegativeStep && rng_.chance(1, 6)) {
            lb = Ix(n_);  // DO v = N, 1, -1
            ub = Ix(1);
            step = -1;
        }

        active.push_back(v);
        std::vector<NodePtr> body;
        if (depth > 1) {
            if (opts_.allowImperfect && rng_.chance(1, 5))
                body.push_back(genStmt(active));
            body.push_back(genLoop(depth - 1, active));
            // A second inner loop makes a FuseAll candidate.
            if (opts_.allowImperfect && rng_.chance(1, 4))
                body.push_back(genLoop(depth - 1, active));
            if (opts_.allowImperfect && rng_.chance(1, 5))
                body.push_back(genStmt(active));
        } else {
            int stmts = static_cast<int>(rng_.range(1, 2));
            for (int s = 0; s < stmts; ++s)
                body.push_back(genStmt(active));
        }
        active.pop_back();
        return b_.loop(v, lb, ub, std::move(body), step);
    }

    /** A subscript `var + d`, occasionally opaque. */
    Subscript
    genSub(const std::vector<Var> &active)
    {
        Var v = active[rng_.below(active.size())];
        Ix ix = Ix(v) + static_cast<int64_t>(rng_.range(0, pad_));
        if (opts_.allowOpaque && rng_.chance(1, 12))
            return opaqueSub(Val(ix));
        return Subscript(ix.e);
    }

    Ref
    genRef(size_t array, const std::vector<Var> &active)
    {
        std::vector<Subscript> subs;
        for (int d = 0; d < ranks_[array]; ++d)
            subs.push_back(genSub(active));
        return arrays_[array].at(std::move(subs));
    }

    /** An exactly-printable constant. */
    Val
    genConst()
    {
        if (rng_.chance(1, 4))
            return Val(static_cast<double>(rng_.range(1, 4)) + 0.5);
        return Val(static_cast<double>(rng_.range(1, 5)));
    }

    /**
     * A value tree plus whether the parser's affine folding would see
     * it as affine. The generator must not emit an affine *composite*
     * (e.g. Mul(Index, Const 1) or Add(Const, Index)) — the parser
     * folds those into a single Index leaf and the print → parse →
     * print fixpoint breaks. Affine material therefore only ever
     * appears as single Index/Const leaves, which are already in
     * normal form.
     */
    struct Expr
    {
        Val v;
        bool affine;
    };

    Expr
    genLeaf(const std::vector<Var> &active)
    {
        uint64_t pick = rng_.below(6);
        if (pick < 3)
            return {genRef(rng_.below(arrays_.size()), active), false};
        if (pick < 5)
            return {genConst(), true};
        Var v = active[rng_.below(active.size())];
        return {Val(Ix(v) + static_cast<int64_t>(rng_.range(0, pad_))),
                true};
    }

    Expr
    genExpr(const std::vector<Var> &active, int depth)
    {
        if (depth >= 2 || rng_.chance(1, 3))
            return genLeaf(active);
        Expr a = genExpr(active, depth + 1);
        switch (rng_.below(8)) {
          case 0:
          case 1:
          case 2: {
            // At least one operand of +/- must be non-affine, or the
            // whole node would fold.
            Expr b = a.affine ? Expr{genRef(rng_.below(arrays_.size()),
                                            active),
                                     false}
                              : genExpr(active, depth + 1);
            bool sub = rng_.chance(1, 3);
            return {sub ? a.v - b.v : a.v + b.v, false};
          }
          case 3: {
            // Multiply-by-constant folds over an affine base.
            Val base = a.affine
                           ? Val(genRef(rng_.below(arrays_.size()),
                                        active))
                           : a.v;
            return {base * genConst(), false};
          }
          case 4:
            // Dyadic divisor keeps values exactly representable.
            return {a.v / Val(rng_.chance(1, 2) ? 2.0 : 4.0), false};
          case 5:
            return {minv(a.v, genExpr(active, depth + 1).v), false};
          case 6:
            return {maxv(a.v, genExpr(active, depth + 1).v), false};
          default:
            return {imodv(a.v, Val(static_cast<double>(
                                  rng_.range(2, 4)))) +
                        genConst(),
                    false};
        }
    }

    NodePtr
    genStmt(const std::vector<Var> &active)
    {
        // Prefer data arrays as write targets; the rank-0 scalar (when
        // present) is written rarely, creating output dependences.
        size_t target = rng_.below(arrays_.size());
        if (ranks_[target] == 0 && !rng_.chance(1, 3))
            target = 0;
        return b_.assign(genRef(target, active),
                         genExpr(active, 0).v);
    }

    Rng rng_;
    const FuzzOptions &opts_;
    ProgramBuilder b_;
    Var n_;
    int64_t pad_ = 0;
    int nextVar_ = 0;
    std::vector<Arr> arrays_;
    std::vector<int> ranks_;
};

} // namespace

Program
fuzzProgram(uint64_t seed, const FuzzOptions &opts)
{
    return Generator(seed, opts).run();
}

} // namespace memoria
