#include "frontend/parser.hh"

#include <cctype>
#include <cstdlib>
#include <map>
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

struct Token
{
    enum class Kind { Ident, Number, Sym, End } kind = Kind::End;
    std::string text;   ///< Ident
    double number = 0;  ///< Number
    bool isInt = false;
    char sym = 0;  ///< Sym
    int line = 1;
    int col = 1;
};

class Lexer
{
  public:
    explicit Lexer(const std::string &src) : src_(src) { advance(); }

    const Token &peek() const { return tok_; }

    Token
    next()
    {
        Token t = tok_;
        advance();
        return t;
    }

    int line() const { return line_; }

  private:
    /** Consume one character, tracking line and column. */
    void
    bump()
    {
        if (src_[pos_] == '\n') {
            ++line_;
            col_ = 1;
        } else {
            ++col_;
        }
        ++pos_;
    }

    void
    advance()
    {
        while (pos_ < src_.size()) {
            char c = src_[pos_];
            if (std::isspace(static_cast<unsigned char>(c))) {
                bump();
            } else if (c == '!') {  // comment to end of line
                while (pos_ < src_.size() && src_[pos_] != '\n')
                    bump();
            } else {
                break;
            }
        }
        tok_ = Token{};
        tok_.line = line_;
        tok_.col = col_;
        if (pos_ >= src_.size()) {
            tok_.kind = Token::Kind::End;
            return;
        }
        char c = src_[pos_];
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            size_t start = pos_;
            while (pos_ < src_.size() &&
                   (std::isalnum(
                        static_cast<unsigned char>(src_[pos_])) ||
                    src_[pos_] == '_'))
                bump();
            tok_.kind = Token::Kind::Ident;
            tok_.text = src_.substr(start, pos_ - start);
            return;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && pos_ + 1 < src_.size() &&
             std::isdigit(static_cast<unsigned char>(src_[pos_ + 1])))) {
            size_t start = pos_;
            bool isInt = true;
            while (pos_ < src_.size()) {
                char d = src_[pos_];
                if (std::isdigit(static_cast<unsigned char>(d))) {
                    bump();
                } else if (d == '.' || d == 'e' || d == 'E') {
                    isInt = false;
                    bump();
                    if (pos_ < src_.size() &&
                        (src_[pos_] == '+' || src_[pos_] == '-') &&
                        (d == 'e' || d == 'E'))
                        bump();
                } else {
                    break;
                }
            }
            tok_.kind = Token::Kind::Number;
            tok_.number = std::strtod(src_.c_str() + start, nullptr);
            tok_.isInt = isInt;
            return;
        }
        tok_.kind = Token::Kind::Sym;
        tok_.sym = c;
        bump();
    }

    const std::string &src_;
    size_t pos_ = 0;
    int line_ = 1;
    int col_ = 1;
    Token tok_;
};

// ------------------------------------------------------------ parser

std::string
upper(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(
            std::toupper(static_cast<unsigned char>(c)));
    return s;
}

struct Bail
{
    ParseError err;
};

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
        parseStmtList(prog_.body, {"END"});
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
    fail(const std::string &msg)
    {
        throw Bail{{lex_.peek().line, msg, lex_.peek().col}};
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
    peekKeyword(const std::string &kw)
    {
        return lex_.peek().kind == Token::Kind::Ident &&
               upper(lex_.peek().text) == kw;
    }

    void
    expectKeyword(const std::string &kw)
    {
        if (!peekKeyword(kw))
            fail("expected " + kw);
        lex_.next();
    }

    std::string
    expectIdent()
    {
        if (lex_.peek().kind != Token::Kind::Ident)
            fail("expected identifier");
        return lex_.next().text;
    }

    void
    expectSym(char c)
    {
        if (lex_.peek().kind != Token::Kind::Sym ||
            lex_.peek().sym != c)
            fail(std::string("expected '") + c + "'");
        lex_.next();
    }

    bool
    acceptSym(char c)
    {
        if (lex_.peek().kind == Token::Kind::Sym &&
            lex_.peek().sym == c) {
            lex_.next();
            return true;
        }
        return false;
    }

    int64_t
    expectInt()
    {
        bool neg = acceptSym('-');
        if (lex_.peek().kind != Token::Kind::Number ||
            !lex_.peek().isInt)
            fail("expected integer");
        int64_t v = static_cast<int64_t>(lex_.next().number);
        return neg ? -v : v;
    }

    // ---- declarations ------------------------------------------

    void
    parseDeclarations()
    {
        for (;;) {
            if (peekKeyword("PARAMETER")) {
                lex_.next();
                std::string name = expectIdent();
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
                if (acceptSym('*'))
                    elemSize = static_cast<int>(expectInt());
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
        std::string name = expectIdent();
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
        if (arrays_.count(name))
            fail("array '" + name + "' redeclared");
        arrays_[name] = static_cast<ArrayId>(prog_.arrays.size());
        prog_.arrays.push_back(std::move(decl));
    }

    void
    declareVar(const std::string &name, VarInfo info)
    {
        if (vars_.count(name))
            fail("variable '" + name + "' redeclared");
        vars_[name] = static_cast<VarId>(prog_.vars.size());
        prog_.vars.push_back(std::move(info));
    }

    VarId
    loopVarFor(const std::string &name)
    {
        auto it = vars_.find(name);
        if (it != vars_.end()) {
            if (prog_.vars[it->second].kind != VarKind::LoopVar)
                fail("'" + name + "' is not a loop variable");
            return it->second;
        }
        VarInfo info;
        info.name = name;
        info.kind = VarKind::LoopVar;
        declareVar(name, std::move(info));
        return vars_.at(name);
    }

    // ---- statements --------------------------------------------

    void
    parseStmtList(std::vector<NodePtr> &out,
                  const std::vector<std::string> &terminators)
    {
        for (;;) {
            harness::poll("parser.stmt");
            for (const auto &term : terminators)
                if (peekKeyword(term))
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
        if (acceptSym(','))
            step = expectInt();
        std::vector<NodePtr> body;
        parseStmtList(body, {"ENDDO"});
        expectKeyword("ENDDO");
        --loopDepth_;
        return Node::makeLoop(var, std::move(lb), std::move(ub), step,
                              std::move(body));
    }

    NodePtr
    parseAssign()
    {
        std::string name = expectIdent();
        ArrayRef lhs = parseRefAfterName(name);
        expectSym('=');
        Statement s;
        s.write = std::move(lhs);
        s.rhs = fold(parseExpr());
        return Node::makeStmt(std::move(s));
    }

    // ---- references and subscripts -----------------------------

    ArrayRef
    parseRefAfterName(const std::string &name)
    {
        auto it = arrays_.find(name);
        if (it == arrays_.end())
            fail("unknown array '" + name + "'");
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
            fail("array '" + name + "' used with wrong rank");
        return ref;
    }

    Subscript
    parseSubscript()
    {
        if (acceptSym('[')) {
            ValuePtr v = fold(parseExpr());
            expectSym(']');
            return Subscript::makeOpaque(std::move(v));
        }
        ValuePtr v = parseExpr();
        auto aff = tryAffine(v);
        if (!aff)
            fail("subscript is not affine (use [expr] for opaque)");
        return Subscript(*aff);
    }

    AffineExpr
    parseAffine()
    {
        ValuePtr v = parseExpr();
        auto aff = tryAffine(v);
        if (!aff)
            fail("expected an affine expression");
        return *aff;
    }

    // ---- expressions -------------------------------------------

    ValuePtr
    parseExpr()
    {
        if (exprDepth_ >= kMaxExprDepth)
            fail("expression nesting exceeds the depth limit of " +
                 std::to_string(kMaxExprDepth));
        ++exprDepth_;
        ValuePtr lhs = parseTerm();
        for (;;) {
            if (acceptSym('+'))
                lhs = Value::make(ValOp::Add, {lhs, parseTerm()});
            else if (acceptSym('-'))
                lhs = Value::make(ValOp::Sub, {lhs, parseTerm()});
            else
                break;
        }
        --exprDepth_;
        return lhs;
    }

    ValuePtr
    parseTerm()
    {
        ValuePtr lhs = parseFactor();
        for (;;) {
            if (acceptSym('*'))
                lhs = Value::make(ValOp::Mul, {lhs, parseFactor()});
            else if (acceptSym('/'))
                lhs = Value::make(ValOp::Div, {lhs, parseFactor()});
            else
                return lhs;
        }
    }

    ValuePtr
    parseFactor()
    {
        if (acceptSym('-'))
            return Value::make(ValOp::Neg, {parseFactor()});
        if (acceptSym('(')) {
            ValuePtr v = parseExpr();
            expectSym(')');
            return v;
        }
        if (lex_.peek().kind == Token::Kind::Number)
            return Value::makeConst(lex_.next().number);
        if (lex_.peek().kind != Token::Kind::Ident)
            fail("expected expression");

        std::string name = lex_.next().text;
        std::string kw = upper(name);
        if (kw == "SQRT" || kw == "MIN" || kw == "MAX" || kw == "MOD") {
            expectSym('(');
            std::vector<ValuePtr> args;
            args.push_back(parseExpr());
            while (acceptSym(','))
                args.push_back(parseExpr());
            expectSym(')');
            if (kw == "SQRT") {
                if (args.size() != 1)
                    fail("SQRT takes one argument");
                return Value::make(ValOp::Sqrt, std::move(args));
            }
            if (args.size() != 2)
                fail(kw + " takes two arguments");
            ValOp op = kw == "MIN" ? ValOp::Min
                                   : (kw == "MAX" ? ValOp::Max
                                                  : ValOp::IMod);
            return Value::make(op, std::move(args));
        }

        if (arrays_.count(name))
            return Value::makeLoad(parseRefAfterName(name));
        auto it = vars_.find(name);
        if (it != vars_.end())
            return Value::makeIndex(AffineExpr::makeVar(it->second));
        fail("unknown identifier '" + name + "'");
    }

    // ---- affine folding ----------------------------------------

    /** Affine view of a value tree, when one exists: integer
     *  constants, Index leaves, +/-, and multiplication by an
     *  integer constant. */
    std::optional<AffineExpr>
    tryAffine(const ValuePtr &v)
    {
        switch (v->op) {
          case ValOp::Const: {
            double c = v->constant;
            if (c != static_cast<double>(static_cast<int64_t>(c)))
                return std::nullopt;
            return AffineExpr(static_cast<int64_t>(c));
          }
          case ValOp::Index:
            return v->index;
          case ValOp::Neg: {
            auto a = tryAffine(v->kids[0]);
            if (!a)
                return std::nullopt;
            return -*a;
          }
          case ValOp::Add:
          case ValOp::Sub: {
            auto a = tryAffine(v->kids[0]);
            auto b = tryAffine(v->kids[1]);
            if (!a || !b)
                return std::nullopt;
            return v->op == ValOp::Add ? *a + *b : *a - *b;
          }
          case ValOp::Mul: {
            auto a = tryAffine(v->kids[0]);
            auto b = tryAffine(v->kids[1]);
            if (!a || !b)
                return std::nullopt;
            if (a->isConstant())
                return *b * a->constant();
            if (b->isConstant())
                return *a * b->constant();
            return std::nullopt;
          }
          default:
            return std::nullopt;
        }
    }

    /** Collapse affine arithmetic over index variables into single
     *  Index leaves so parse(print(p)) prints identically. */
    ValuePtr
    fold(const ValuePtr &v)
    {
        auto aff = tryAffine(v);
        if (aff && !aff->isConstant() && v->op != ValOp::Index)
            return Value::makeIndex(*aff);
        if (v->kids.empty())
            return v;
        auto out = std::make_shared<Value>();
        out->op = v->op;
        out->constant = v->constant;
        out->index = v->index;
        out->load = v->load;
        out->kids.reserve(v->kids.size());
        for (const auto &kid : v->kids)
            out->kids.push_back(fold(kid));
        return out;
    }

    Lexer lex_;
    Program prog_;
    std::map<std::string, VarId> vars_;
    std::map<std::string, ArrayId> arrays_;
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
