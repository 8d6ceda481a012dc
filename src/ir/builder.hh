/**
 * @file
 * Fluent construction API for loop-nest programs.
 *
 * The builder plays the role of the paper's Fortran 77 front end: kernels
 * and corpus programs are written in a compact embedded DSL, e.g.
 *
 *   ProgramBuilder b("matmul");
 *   auto n = b.param("N", 512);
 *   auto a = b.array("A", {n, n});
 *   ...
 *   b.add(b.loop(j, 1, n, b.loop(k, 1, n, b.loop(i, 1, n,
 *       b.assign(c(i, j), c(i, j) + a(i, k) * bm(k, j))))));
 *   Program p = b.finish();
 */

#ifndef MEMORIA_IR_BUILDER_HH
#define MEMORIA_IR_BUILDER_HH

#include <string>
#include <vector>

#include "ir/program.hh"

namespace memoria {

class ProgramBuilder;

/** Affine index expression wrapper with natural arithmetic. */
struct Ix
{
    AffineExpr e;

    Ix(int64_t c) : e(c) {}
    Ix(int c) : e(c) {}
    Ix(AffineExpr expr) : e(std::move(expr)) {}
};

inline Ix operator+(const Ix &a, const Ix &b) { return {a.e + b.e}; }
inline Ix operator-(const Ix &a, const Ix &b) { return {a.e - b.e}; }
inline Ix operator*(const Ix &a, int64_t s) { return {a.e * s}; }
inline Ix operator*(int64_t s, const Ix &a) { return {a.e * s}; }
inline Ix operator-(const Ix &a) { return {-a.e}; }

/** Handle to a declared variable (loop index or parameter). */
struct Var
{
    VarId id = kNoVar;

    operator Ix() const { return Ix(AffineExpr::makeVar(id)); }
};

/** Value-tree wrapper with natural arithmetic. */
struct Val
{
    ValuePtr p;

    Val(double c) : p(Value::makeConst(c)) {}
    Val(int c) : p(Value::makeConst(c)) {}
    Val(ValuePtr ptr) : p(std::move(ptr)) {}
    Val(const Ix &ix) : p(Value::makeIndex(ix.e)) {}
    Val(const Var &v) : p(Value::makeIndex(AffineExpr::makeVar(v.id))) {}
};

/** Array reference wrapper; converts to Val (a load) on the RHS. */
struct Ref
{
    ArrayRef r;

    operator Val() const { return Val(Value::makeLoad(r)); }
};

inline Val
operator+(const Val &a, const Val &b)
{
    return Val(Value::make(ValOp::Add, {a.p, b.p}));
}

inline Val
operator-(const Val &a, const Val &b)
{
    return Val(Value::make(ValOp::Sub, {a.p, b.p}));
}

inline Val
operator*(const Val &a, const Val &b)
{
    return Val(Value::make(ValOp::Mul, {a.p, b.p}));
}

inline Val
operator/(const Val &a, const Val &b)
{
    return Val(Value::make(ValOp::Div, {a.p, b.p}));
}

inline Val
operator-(const Val &a)
{
    return Val(Value::make(ValOp::Neg, {a.p}));
}

/** sqrt(a). */
inline Val
sqrtv(const Val &a)
{
    return Val(Value::make(ValOp::Sqrt, {a.p}));
}

/** min(a, b). */
inline Val
minv(const Val &a, const Val &b)
{
    return Val(Value::make(ValOp::Min, {a.p, b.p}));
}

/** max(a, b). */
inline Val
maxv(const Val &a, const Val &b)
{
    return Val(Value::make(ValOp::Max, {a.p, b.p}));
}

/** mod(a, b) on the rounded integer values. */
inline Val
imodv(const Val &a, const Val &b)
{
    return Val(Value::make(ValOp::IMod, {a.p, b.p}));
}

/** Handle to a declared array; call it with subscripts to make a Ref. */
struct Arr
{
    ArrayId id = -1;

    Ref operator()(const Ix &i) const;
    Ref operator()(const Ix &i, const Ix &j) const;
    Ref operator()(const Ix &i, const Ix &j, const Ix &k) const;

    /** General form, allowing opaque subscripts. */
    Ref at(std::vector<Subscript> subs) const;

    /** Rank-0 (scalar) reference. */
    Ref operator()() const { return at({}); }
};

/** An opaque (unanalyzable) subscript computed by a value tree. */
Subscript opaqueSub(const Val &v);

/** Builder for one Program. */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::string name);

    /** Symbolic size parameter; cost model sees it as the symbol n. */
    Var param(const std::string &name, int64_t value);

    /** Declare a loop index variable. */
    Var loopVar(const std::string &name);

    /** Declare a column-major array. */
    Arr array(const std::string &name, std::vector<Ix> extents,
              int elemSize = 8);

    /** Build an assignment statement node. */
    NodePtr assign(const Ref &lhs, const Val &rhs);

    /** Build a DO loop node with the given body. */
    NodePtr loop(Var v, const Ix &lb, const Ix &ub,
                 std::vector<NodePtr> body, int64_t step = 1);

    /** Convenience: single-node and variadic bodies. */
    template <class... Rest>
    NodePtr
    loop(Var v, const Ix &lb, const Ix &ub, NodePtr first, Rest... rest)
    {
        std::vector<NodePtr> body;
        body.push_back(std::move(first));
        (body.push_back(std::move(rest)), ...);
        return loop(v, lb, ub, std::move(body));
    }

    /** Append a top-level node. */
    void add(NodePtr n);

    /** Finalize and return the program. */
    Program finish();

  private:
    Program prog_;
    int nextStmt_ = 0;
    bool finished_ = false;
};

} // namespace memoria

#endif // MEMORIA_IR_BUILDER_HH
