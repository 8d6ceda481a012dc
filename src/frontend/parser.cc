#include "frontend/parser.hh"

#include <cctype>
#include <charconv>
#include <climits>
#include <cmath>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <vector>

#include "harness/budget.hh"
#include "harness/fault.hh"
#include "support/logging.hh"

namespace memoria {

namespace {

/** Armable failure point covering the whole front end
 *  (docs/ROBUSTNESS.md, fault-site catalog). */
harness::FaultSite gParseFault("parser.parse", /*supportsDiag=*/true);

// ------------------------------------------------------------- lexer

struct Bail
{
    ParseError err;
};

struct Token
{
    enum class Kind { Ident, Number, Sym, End } kind = Kind::End;
    std::string_view text;  ///< Ident, Number: a view into the source
    double number = 0;      ///< Number
    int64_t integer = 0;    ///< Number with isInt: its exact value
    bool isInt = false;
    char sym = 0;  ///< Sym
    int line = 1;
    int col = 1;
};

class Lexer
{
  public:
    /** `src` must outlive the lexer; tokens view into it. */
    explicit Lexer(const std::string &src) : src_(src) { advance(); }

    const Token &peek() const { return tok_; }

    Token
    next()
    {
        Token t = tok_;
        advance();
        return t;
    }

  private:
    bool
    isDigitAt(size_t p) const
    {
        return p < src_.size() &&
               std::isdigit(static_cast<unsigned char>(src_[p]));
    }

    bool
    isAnyAt(size_t p, std::string_view set) const
    {
        return p < src_.size() &&
               set.find(src_[p]) != std::string_view::npos;
    }

    bool
    isWordAt(size_t p) const
    {
        return p < src_.size() &&
               (std::isalnum(static_cast<unsigned char>(src_[p])) ||
                src_[p] == '_');
    }

    void
    advance()
    {
        while (pos_ < src_.size()) {
            char c = src_[pos_];
            if (c == '\n') {
                ++line_;
                lineStart_ = ++pos_;
            } else if (std::isspace(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '!') {  // comment to end of line
                while (pos_ < src_.size() && src_[pos_] != '\n')
                    ++pos_;
            } else {
                break;
            }
        }
        tok_ = Token{};
        tok_.line = line_;
        tok_.col = static_cast<int>(pos_ - lineStart_) + 1;
        if (pos_ >= src_.size()) {
            tok_.kind = Token::Kind::End;
            return;
        }
        char c = src_[pos_];
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            size_t start = pos_;
            while (isWordAt(pos_))
                ++pos_;
            tok_.kind = Token::Kind::Ident;
            tok_.text = std::string_view(src_).substr(start, pos_ - start);
            return;
        }
        if (isDigitAt(pos_) || (c == '.' && isDigitAt(pos_ + 1))) {
            lexNumber();
            return;
        }
        tok_.kind = Token::Kind::Sym;
        tok_.sym = c;
        ++pos_;
    }

    /** digits [. digits] [(e|E) [+|-] digits], valued from exactly
     *  those characters. A letter, digit or '.' glued on after them
     *  makes the whole run malformed. */
    void
    lexNumber()
    {
        const size_t start = pos_;
        bool isInt = true;
        bool wellFormed = true;
        auto skipDigits = [&] {
            while (isDigitAt(pos_))
                ++pos_;
        };
        skipDigits();
        if (isAnyAt(pos_, ".")) {
            isInt = false;
            ++pos_;
            skipDigits();
        }
        if (isAnyAt(pos_, "eE")) {
            isInt = false;
            pos_ += isAnyAt(pos_ + 1, "+-") ? 2 : 1;
            wellFormed = isDigitAt(pos_);
            skipDigits();
        }
        const size_t end = pos_;
        while (isWordAt(pos_) || isAnyAt(pos_, ".")) {
            wellFormed = false;
            ++pos_;
        }
        tok_.kind = Token::Kind::Number;
        tok_.text = std::string_view(src_).substr(start, pos_ - start);
        if (!wellFormed)
            fail("malformed number '" + std::string(tok_.text) + "'");
        const char *first = src_.data() + start;
        const char *last = src_.data() + end;
        const std::errc ec =
            isInt ? std::from_chars(first, last, tok_.integer).ec
                  : std::from_chars(first, last, tok_.number).ec;
        if (ec != std::errc())
            fail("number '" + std::string(tok_.text) + "' is out of range");
        if (isInt)
            tok_.number = static_cast<double>(tok_.integer);
        tok_.isInt = isInt;
    }

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw Bail{{tok_.line, msg, tok_.col}};
    }

    const std::string &src_;
    size_t pos_ = 0;
    size_t lineStart_ = 0;  ///< offset of the current line's first char
    int line_ = 1;
    Token tok_;
};

// ------------------------------------------------------------ parser

/** Case-insensitive match of `text` against upper-case `kw`. */
bool
isKeyword(std::string_view text, std::string_view kw)
{
    if (text.size() != kw.size())
        return false;
    for (size_t i = 0; i < kw.size(); ++i)
        if (std::toupper(static_cast<unsigned char>(text[i])) != kw[i])
            return false;
    return true;
}

/** The intrinsic `name` spells (SQRT, MIN, MAX, MOD), or null. */
const char *
intrinsicName(std::string_view name)
{
    for (const char *kw : {"SQRT", "MIN", "MAX", "MOD"})
        if (isKeyword(name, kw))
            return kw;
    return nullptr;
}

/** Hashes std::string keys and std::string_view probes alike. */
struct NameHash
{
    using is_transparent = void;
    size_t
    operator()(std::string_view s) const noexcept
    {
        return std::hash<std::string_view>{}(s);
    }
};

template <class Id>
using NameMap = std::unordered_map<std::string, Id, NameHash, std::equal_to<>>;

/** `c` as an integer, when it is a whole number int64_t can hold. */
std::optional<int64_t>
integral(double c)
{
    if (!(c >= -0x1p63 && c < 0x1p63) || c != std::trunc(c))
        return std::nullopt;
    return static_cast<int64_t>(c);
}

/**
 * A parsed (sub)expression: its affine form when it has one, and the
 * makings of its Value tree. The tree is built only once a non-affine
 * operator needs it (value()), following three rules: a non-constant
 * affine operand becomes one Index leaf, a constant subexpression keeps
 * its own tree, and a bare literal, under any unary minuses, allocates
 * nothing until then.
 */
struct Operand
{
    std::optional<AffineExpr> affine;
    /** Built tree; null for a non-constant affine operand and for a
     *  bare literal. */
    ValuePtr tree;
    double literal = 0;  ///< bare literal: its value
    int negations = 0;   ///< bare literal: unary minuses applied to it
};

/** An operand with no affine form. */
Operand
nonAffine(ValuePtr tree)
{
    Operand o;
    o.tree = std::move(tree);
    return o;
}

/** The Value tree of `o`, built by Operand's rules. */
ValuePtr
value(Operand &&o)
{
    if (o.tree)
        return std::move(o.tree);
    if (o.affine && !o.affine->isConstant())
        return Value::makeIndex(std::move(*o.affine));
    ValuePtr v = Value::makeConst(o.literal);
    for (int k = 0; k < o.negations; ++k)
        v = Value::make(ValOp::Neg, {std::move(v)});
    return v;
}

/** `lhs op rhs` for a binary operator. Affine when both sides are and
 *  the operator keeps them so: +, -, and * by an integer constant. */
Operand
combine(ValOp op, Operand &&lhs, Operand &&rhs)
{
    Operand out;
    if (lhs.affine && rhs.affine) {
        const AffineExpr &a = *lhs.affine;
        const AffineExpr &b = *rhs.affine;
        if (op == ValOp::Add)
            out.affine = a + b;
        else if (op == ValOp::Sub)
            out.affine = a - b;
        else if (op == ValOp::Mul && a.isConstant())
            out.affine = b * a.constant();
        else if (op == ValOp::Mul && b.isConstant())
            out.affine = a * b.constant();
    }
    if (out.affine && !out.affine->isConstant())
        return out;
    out.tree = Value::make(op, {value(std::move(lhs)), value(std::move(rhs))});
    return out;
}

/** Unary minus. */
void
negate(Operand &o)
{
    if (o.affine)
        o.affine = -*o.affine;
    if (o.affine && !o.affine->isConstant())
        return;
    if (o.tree)
        o.tree = Value::make(ValOp::Neg, {std::move(o.tree)});
    else
        ++o.negations;
}

class Parser
{
  public:
    explicit Parser(const std::string &src) : lex_(src) {}

    Program
    run()
    {
        expectKeyword("PROGRAM");
        prog_.name = expectIdent();
        parseDeclarations();
        parseStmtList(prog_.body, "END");
        expectKeyword("END");
        int next = 0;
        for (auto &n : prog_.body)
            renumber(*n, next);
        return std::move(prog_);
    }

  private:
    /** Recursion bounds; hostile nesting fails cleanly instead of
     *  overflowing the stack. */
    static constexpr int kMaxLoopDepth = 64;
    static constexpr int kMaxExprDepth = 256;

    [[noreturn]] void
    failAt(const Token &at, const std::string &msg)
    {
        throw Bail{{at.line, msg, at.col}};
    }

    [[noreturn]] void
    fail(const std::string &msg)
    {
        failAt(lex_.peek(), msg);
    }

    static void
    renumber(Node &n, int &next)
    {
        if (n.isStmt()) {
            n.stmt.id = next++;
            return;
        }
        for (auto &kid : n.body)
            renumber(*kid, next);
    }

    bool
    peekKeyword(std::string_view kw) const
    {
        return lex_.peek().kind == Token::Kind::Ident &&
               isKeyword(lex_.peek().text, kw);
    }

    void
    expectKeyword(std::string_view kw)
    {
        if (!peekKeyword(kw))
            fail("expected " + std::string(kw));
        lex_.next();
    }

    std::string_view
    expectIdent()
    {
        if (lex_.peek().kind != Token::Kind::Ident)
            fail("expected identifier");
        return lex_.next().text;
    }

    bool
    peekSym(char c) const
    {
        return lex_.peek().kind == Token::Kind::Sym && lex_.peek().sym == c;
    }

    void
    expectSym(char c)
    {
        if (!peekSym(c))
            fail(std::string("expected '") + c + "'");
        lex_.next();
    }

    bool
    acceptSym(char c)
    {
        if (!peekSym(c))
            return false;
        lex_.next();
        return true;
    }

    int64_t
    expectInt()
    {
        bool neg = acceptSym('-');
        if (lex_.peek().kind != Token::Kind::Number ||
            !lex_.peek().isInt)
            fail("expected integer");
        int64_t v = lex_.next().integer;
        return neg ? -v : v;
    }

    // ---- declarations ------------------------------------------

    void
    parseDeclarations()
    {
        for (;;) {
            if (peekKeyword("PARAMETER")) {
                lex_.next();
                std::string_view name = expectIdent();
                expectSym('=');
                int64_t value = expectInt();
                VarInfo info;
                info.name = name;
                info.kind = VarKind::Param;
                info.paramValue = value;
                info.paramPoly = Poly::sym();
                declareVar(name, std::move(info));
            } else if (peekKeyword("REAL")) {
                lex_.next();
                int elemSize = 8;
                if (acceptSym('*')) {
                    const Token at = lex_.peek();
                    int64_t size = expectInt();
                    if (size < INT_MIN || size > INT_MAX)
                        failAt(at, "element size " + std::to_string(size) +
                                       " is out of range");
                    elemSize = static_cast<int>(size);
                }
                do {
                    parseArrayDecl(elemSize, false);
                } while (acceptSym(','));
            } else if (peekKeyword("REGISTER")) {
                lex_.next();
                do {
                    parseArrayDecl(8, true);
                } while (acceptSym(','));
            } else {
                return;
            }
        }
    }

    void
    parseArrayDecl(int elemSize, bool isRegister)
    {
        std::string_view name = expectIdent();
        ArrayDecl decl;
        decl.name = name;
        decl.elemSize = elemSize;
        decl.isRegister = isRegister;
        if (acceptSym('(')) {
            if (!acceptSym(')')) {
                do {
                    decl.extents.push_back(parseAffine());
                } while (acceptSym(','));
                expectSym(')');
            }
        }
        if (arrays_.find(name) != arrays_.end())
            fail("array '" + std::string(name) + "' redeclared");
        arrays_.emplace(name, static_cast<ArrayId>(prog_.arrays.size()));
        prog_.arrays.push_back(std::move(decl));
    }

    VarId
    declareVar(std::string_view name, VarInfo info)
    {
        if (vars_.find(name) != vars_.end())
            fail("variable '" + std::string(name) + "' redeclared");
        VarId id = static_cast<VarId>(prog_.vars.size());
        vars_.emplace(name, id);
        prog_.vars.push_back(std::move(info));
        return id;
    }

    VarId
    loopVarFor(std::string_view name)
    {
        auto it = vars_.find(name);
        if (it != vars_.end()) {
            if (prog_.vars[it->second].kind != VarKind::LoopVar)
                fail("'" + std::string(name) + "' is not a loop variable");
            return it->second;
        }
        VarInfo info;
        info.name = name;
        info.kind = VarKind::LoopVar;
        return declareVar(name, std::move(info));
    }

    // ---- statements --------------------------------------------

    void
    parseStmtList(std::vector<NodePtr> &out, std::string_view terminator)
    {
        for (;;) {
            harness::poll("parser.stmt");
            if (peekKeyword(terminator))
                return;
            if (lex_.peek().kind == Token::Kind::End)
                fail("unexpected end of input");
            if (peekKeyword("DO")) {
                out.push_back(parseLoop());
            } else {
                out.push_back(parseAssign());
            }
        }
    }

    NodePtr
    parseLoop()
    {
        if (loopDepth_ >= kMaxLoopDepth)
            fail("loop nesting exceeds the depth limit of " +
                 std::to_string(kMaxLoopDepth));
        ++loopDepth_;
        expectKeyword("DO");
        VarId var = loopVarFor(expectIdent());
        expectSym('=');
        AffineExpr lb = parseAffine();
        expectSym(',');
        AffineExpr ub = parseAffine();
        int64_t step = 1;
        if (acceptSym(',')) {
            const Token at = lex_.peek();
            step = expectInt();
            if (step == 0)
                failAt(at, "loop step must be non-zero");
        }
        std::vector<NodePtr> body;
        parseStmtList(body, "ENDDO");
        expectKeyword("ENDDO");
        --loopDepth_;
        return Node::makeLoop(var, std::move(lb), std::move(ub), step,
                              std::move(body));
    }

    NodePtr
    parseAssign()
    {
        std::string_view name = expectIdent();
        ArrayRef lhs = parseRefAfterName(name);
        expectSym('=');
        Statement s;
        s.write = std::move(lhs);
        s.rhs = value(parseExpr());
        return Node::makeStmt(std::move(s));
    }

    // ---- references and subscripts -----------------------------

    ArrayRef
    parseRefAfterName(std::string_view name)
    {
        auto it = arrays_.find(name);
        if (it == arrays_.end())
            fail("unknown array '" + std::string(name) + "'");
        ArrayRef ref;
        ref.array = it->second;
        size_t rank = prog_.arrays[it->second].extents.size();
        if (acceptSym('(')) {
            if (!acceptSym(')')) {
                do {
                    ref.subs.push_back(parseSubscript());
                } while (acceptSym(','));
                expectSym(')');
            }
        }
        if (ref.subs.size() != rank)
            fail("array '" + std::string(name) + "' used with wrong rank");
        return ref;
    }

    Subscript
    parseSubscript()
    {
        if (acceptSym('[')) {
            ValuePtr v = value(parseExpr());
            expectSym(']');
            return Subscript::makeOpaque(std::move(v));
        }
        return Subscript(
            parseAffine("subscript is not affine (use [expr] for opaque)"));
    }

    /** A bound, an extent or a subscript: the whole expression is
     *  parsed before `notAffine` can fire, at the token after it. */
    AffineExpr
    parseAffine(const char *notAffine = "expected an affine expression")
    {
        Operand o = parseExpr();
        if (!o.affine)
            fail(notAffine);
        return std::move(*o.affine);
    }

    // ---- expressions -------------------------------------------

    Operand
    parseExpr()
    {
        if (exprDepth_ >= kMaxExprDepth)
            fail("expression nesting exceeds the depth limit of " +
                 std::to_string(kMaxExprDepth));
        ++exprDepth_;
        Operand lhs = parseTerm();
        for (;;) {
            ValOp op;
            if (acceptSym('+'))
                op = ValOp::Add;
            else if (acceptSym('-'))
                op = ValOp::Sub;
            else
                break;
            Operand rhs = parseTerm();
            lhs = combine(op, std::move(lhs), std::move(rhs));
        }
        --exprDepth_;
        return lhs;
    }

    Operand
    parseTerm()
    {
        Operand lhs = parseFactor();
        for (;;) {
            ValOp op;
            if (acceptSym('*'))
                op = ValOp::Mul;
            else if (acceptSym('/'))
                op = ValOp::Div;
            else
                return lhs;
            Operand rhs = parseFactor();
            lhs = combine(op, std::move(lhs), std::move(rhs));
        }
    }

    Operand
    parseFactor()
    {
        if (acceptSym('-')) {
            Operand o = parseFactor();
            negate(o);
            return o;
        }
        if (acceptSym('(')) {
            Operand o = parseExpr();
            expectSym(')');
            return o;
        }
        if (lex_.peek().kind == Token::Kind::Number) {
            Operand o;
            o.literal = lex_.next().number;
            if (std::optional<int64_t> c = integral(o.literal))
                o.affine = AffineExpr(*c);
            return o;
        }
        if (lex_.peek().kind != Token::Kind::Ident)
            fail("expected expression");

        std::string_view name = lex_.next().text;
        if (const char *kw = intrinsicName(name)) {
            expectSym('(');
            std::vector<ValuePtr> args;
            args.push_back(value(parseExpr()));
            while (acceptSym(','))
                args.push_back(value(parseExpr()));
            expectSym(')');
            std::string_view op = kw;
            if (op == "SQRT") {
                if (args.size() != 1)
                    fail("SQRT takes one argument");
                return nonAffine(Value::make(ValOp::Sqrt, std::move(args)));
            }
            if (args.size() != 2)
                fail(std::string(op) + " takes two arguments");
            ValOp vop = op == "MIN" ? ValOp::Min
                                    : (op == "MAX" ? ValOp::Max
                                                   : ValOp::IMod);
            return nonAffine(Value::make(vop, std::move(args)));
        }

        if (arrays_.find(name) != arrays_.end())
            return nonAffine(Value::makeLoad(parseRefAfterName(name)));
        auto it = vars_.find(name);
        if (it == vars_.end())
            fail("unknown identifier '" + std::string(name) + "'");
        Operand o;
        o.affine = AffineExpr::makeVar(it->second);
        return o;
    }

    Lexer lex_;
    Program prog_;
    NameMap<VarId> vars_;
    NameMap<ArrayId> arrays_;
    int loopDepth_ = 0;
    int exprDepth_ = 0;
};

} // namespace

std::string
ParseError::str() const
{
    std::string s = "line ";
    s += std::to_string(line);
    if (col > 0) {
        s += ':';
        s += std::to_string(col);
    }
    s += ": ";
    s += message;
    return s;
}

std::optional<Program>
parseProgram(const std::string &source, ParseError *error)
{
    if (std::optional<Diag> injected = gParseFault.fire()) {
        if (error)
            *error = ParseError{0, injected->message, 0};
        return std::nullopt;
    }
    try {
        Parser p(source);
        return p.run();
    } catch (const Bail &b) {
        if (error)
            *error = b.err;
        return std::nullopt;
    }
}

} // namespace memoria
