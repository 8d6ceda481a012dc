#include "ir/printer.hh"

#include <sstream>

#include "support/logging.hh"

namespace memoria {

namespace {

std::function<std::string(VarId)>
namer(const Program &prog)
{
    return [&prog](VarId v) { return prog.varName(v); };
}

void
printNodeImpl(const Program &prog, const Node &n, int indent,
              std::ostringstream &os)
{
    std::string pad(2 * indent, ' ');
    if (n.isStmt()) {
        os << pad << printRef(prog, n.stmt.write) << " = "
           << printValue(prog, n.stmt.rhs) << "\n";
        return;
    }
    os << pad << "DO " << prog.varName(n.var) << " = "
       << n.lb.str(namer(prog)) << ", " << n.ub.str(namer(prog));
    if (n.step != 1)
        os << ", " << n.step;
    os << "\n";
    for (const auto &kid : n.body)
        printNodeImpl(prog, *kid, indent + 1, os);
    os << pad << "ENDDO\n";
}

} // namespace

std::string
printRef(const Program &prog, const ArrayRef &ref)
{
    std::ostringstream os;
    os << prog.arrayDecl(ref.array).name << "(";
    for (size_t i = 0; i < ref.subs.size(); ++i) {
        if (i)
            os << ",";
        const auto &s = ref.subs[i];
        if (s.isAffine())
            os << s.affine.str(namer(prog));
        else
            os << "[" << printValue(prog, s.opaque) << "]";
    }
    os << ")";
    return os.str();
}

namespace {

/**
 * An Index leaf renders with the precedence of its affine expression:
 * "K" binds like a name, but "K + 3" or "2*K" would bind wrongly
 * inside * and / ("K + 3/2" reparses as K + (3/2)). Anything other
 * than a bare positive variable needs parentheses there.
 */
bool
needsParensInTerm(const ValuePtr &v)
{
    if (v->op != ValOp::Index)
        return false;
    const auto &terms = v->index.terms();
    if (terms.empty())
        return false;  // renders as a plain number
    return terms.size() > 1 || v->index.constant() != 0 ||
           terms[0].second != 1;
}

/** Render a Mul/Div operand, parenthesized when precedence needs it. */
std::string
termOperand(const Program &prog, const ValuePtr &v)
{
    std::string s = printValue(prog, v);
    return needsParensInTerm(v) ? "(" + s + ")" : s;
}

/**
 * Render the right operand of + or -. An Index leaf rendering with a
 * top-level + or - tail ("L + 1") would regroup under the parser's
 * left associativity — harmless after +, meaning-changing after - —
 * so it gets parentheses.
 */
std::string
sumRhsOperand(const Program &prog, const ValuePtr &v)
{
    std::string s = printValue(prog, v);
    if (v->op == ValOp::Index && !v->index.terms().empty() &&
        (v->index.terms().size() > 1 || v->index.constant() != 0))
        return "(" + s + ")";
    return s;
}

} // namespace

std::string
printValue(const Program &prog, const ValuePtr &v)
{
    if (!v)
        return "<null>";
    std::ostringstream os;
    switch (v->op) {
      case ValOp::Const:
        os << v->constant;
        break;
      case ValOp::Load:
        os << printRef(prog, v->load);
        break;
      case ValOp::Index:
        os << v->index.str(namer(prog));
        break;
      case ValOp::Add:
        os << "(" << printValue(prog, v->kids[0]) << " + "
           << sumRhsOperand(prog, v->kids[1]) << ")";
        break;
      case ValOp::Sub:
        os << "(" << printValue(prog, v->kids[0]) << " - "
           << sumRhsOperand(prog, v->kids[1]) << ")";
        break;
      case ValOp::Mul:
        os << termOperand(prog, v->kids[0]) << "*"
           << termOperand(prog, v->kids[1]);
        break;
      case ValOp::Div:
        os << termOperand(prog, v->kids[0]) << "/"
           << termOperand(prog, v->kids[1]);
        break;
      case ValOp::Neg:
        // Negating an affine leaf textually ("-K + 2") would change
        // its meaning; fold the sign into the affine form instead.
        if (v->kids[0]->op == ValOp::Index)
            os << (-v->kids[0]->index).str(namer(prog));
        else
            os << "-" << printValue(prog, v->kids[0]);
        break;
      case ValOp::Sqrt:
        os << "SQRT(" << printValue(prog, v->kids[0]) << ")";
        break;
      case ValOp::Min:
        os << "MIN(" << printValue(prog, v->kids[0]) << ","
           << printValue(prog, v->kids[1]) << ")";
        break;
      case ValOp::Max:
        os << "MAX(" << printValue(prog, v->kids[0]) << ","
           << printValue(prog, v->kids[1]) << ")";
        break;
      case ValOp::IMod:
        os << "MOD(" << printValue(prog, v->kids[0]) << ","
           << printValue(prog, v->kids[1]) << ")";
        break;
    }
    return os.str();
}

std::string
printProgram(const Program &prog)
{
    std::ostringstream os;
    os << "PROGRAM " << prog.name << "\n";
    for (const auto &v : prog.vars) {
        if (v.kind == VarKind::Param)
            os << "  PARAMETER " << v.name << " = " << v.paramValue
               << "\n";
    }
    for (const auto &a : prog.arrays) {
        if (a.isRegister) {
            os << "  REGISTER " << a.name << "\n";
            continue;
        }
        os << "  REAL*" << a.elemSize << " " << a.name << "(";
        for (size_t i = 0; i < a.extents.size(); ++i) {
            if (i)
                os << ",";
            os << a.extents[i].str(namer(prog));
        }
        os << ")\n";
    }
    for (const auto &n : prog.body)
        printNodeImpl(prog, *n, 1, os);
    os << "END\n";
    return os.str();
}

} // namespace memoria
