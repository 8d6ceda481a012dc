#include "frontend/parser.hh"

#include <cctype>
#include <cstdlib>
#include <string_view>
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

struct Token
{
    enum class Kind { Ident, Number, Sym, End } kind = Kind::End;
    std::string_view text;  ///< Ident: a view into the source
    double number = 0;      ///< Number
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

    /** Everything the lexer's future output depends on. */
    struct Mark
    {
        size_t pos;
        size_t lineStart;
        int line;
        Token tok;
    };

    Mark mark() const { return {pos_, lineStart_, line_, tok_}; }

    void
    rewind(const Mark &m)
    {
        pos_ = m.pos;
        lineStart_ = m.lineStart;
        line_ = m.line;
        tok_ = m.tok;
    }

  private:
    bool
    isDigitAt(size_t p) const
    {
        return p < src_.size() &&
               std::isdigit(static_cast<unsigned char>(src_[p]));
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
            while (pos_ < src_.size() &&
                   (std::isalnum(
                        static_cast<unsigned char>(src_[pos_])) ||
                    src_[pos_] == '_'))
                ++pos_;
            tok_.kind = Token::Kind::Ident;
            tok_.text = std::string_view(src_).substr(start, pos_ - start);
            return;
        }
        if (isDigitAt(pos_) || (c == '.' && isDigitAt(pos_ + 1))) {
            size_t start = pos_;
            bool isInt = true;
            while (pos_ < src_.size()) {
                char d = src_[pos_];
                if (std::isdigit(static_cast<unsigned char>(d))) {
                    ++pos_;
                } else if (d == '.' || d == 'e' || d == 'E') {
                    isInt = false;
                    ++pos_;
                    if (pos_ < src_.size() &&
                        (src_[pos_] == '+' || src_[pos_] == '-') &&
                        (d == 'e' || d == 'E'))
                        ++pos_;
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
        ++pos_;
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
        if (acceptSym(','))
            step = expectInt();
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
        s.rhs = fold(parseExpr());
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
            ValuePtr v = fold(parseExpr());
            expectSym(']');
            return Subscript::makeOpaque(std::move(v));
        }
        if (std::optional<AffineExpr> direct = parseAffineDirect())
            return Subscript(std::move(*direct));
        ValuePtr v = parseExpr();
        auto aff = tryAffine(v);
        if (!aff)
            fail("subscript is not affine (use [expr] for opaque)");
        return Subscript(std::move(*aff));
    }

    AffineExpr
    parseAffine()
    {
        if (std::optional<AffineExpr> direct = parseAffineDirect())
            return std::move(*direct);
        ValuePtr v = parseExpr();
        auto aff = tryAffine(v);
        if (!aff)
            fail("expected an affine expression");
        return std::move(*aff);
    }

    // ---- direct affine path ------------------------------------

    /**
     * Parse an expression straight into an AffineExpr, skipping the
     * Value tree. The grammar and the depth accounting are parseExpr's,
     * and the arithmetic is tryAffine's, so an accepted expression
     * consumes the same tokens and yields the same AffineExpr. On
     * anything else (a division, a call, an array, an unknown name, a
     * non-integral constant, the depth limit, a syntax error) the lexer
     * is rewound to the expression's first token and nullopt returned:
     * the caller's Value path then reparses it and reports every error
     * exactly as it always has.
     */
    std::optional<AffineExpr>
    parseAffineDirect()
    {
        const Lexer::Mark start = lex_.mark();
        const int depth = exprDepth_;
        AffineExpr out;
        if (affineExpr(out))
            return out;
        lex_.rewind(start);
        exprDepth_ = depth;
        return std::nullopt;
    }

    bool
    affineExpr(AffineExpr &out)
    {
        if (exprDepth_ >= kMaxExprDepth)
            return false;
        ++exprDepth_;
        if (!affineTerm(out))
            return false;
        for (;;) {
            AffineExpr rhs;
            if (acceptSym('+')) {
                if (!affineTerm(rhs))
                    return false;
                out = out + rhs;
            } else if (acceptSym('-')) {
                if (!affineTerm(rhs))
                    return false;
                out = out - rhs;
            } else {
                break;
            }
        }
        --exprDepth_;
        return true;
    }

    bool
    affineTerm(AffineExpr &out)
    {
        if (!affineFactor(out))
            return false;
        for (;;) {
            if (peekSym('/'))
                return false;
            if (!acceptSym('*'))
                return true;
            AffineExpr rhs;
            if (!affineFactor(rhs))
                return false;
            if (out.isConstant())
                out = rhs * out.constant();
            else if (rhs.isConstant())
                out = out * rhs.constant();
            else
                return false;
        }
    }

    bool
    affineFactor(AffineExpr &out)
    {
        if (acceptSym('-')) {
            if (!affineFactor(out))
                return false;
            out = -out;
            return true;
        }
        if (acceptSym('('))
            return affineExpr(out) && acceptSym(')');
        const Token &t = lex_.peek();
        if (t.kind == Token::Kind::Number) {
            double c = t.number;
            if (c != static_cast<double>(static_cast<int64_t>(c)))
                return false;
            lex_.next();
            out = AffineExpr(static_cast<int64_t>(c));
            return true;
        }
        if (t.kind != Token::Kind::Ident || intrinsicName(t.text))
            return false;
        auto it = vars_.find(t.text);
        if (it == vars_.end())
            return false;  // an array, or an unknown name
        lex_.next();
        out = AffineExpr::makeVar(it->second);
        return true;
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

        std::string_view name = lex_.next().text;
        if (const char *kw = intrinsicName(name)) {
            expectSym('(');
            std::vector<ValuePtr> args;
            args.push_back(parseExpr());
            while (acceptSym(','))
                args.push_back(parseExpr());
            expectSym(')');
            std::string_view op = kw;
            if (op == "SQRT") {
                if (args.size() != 1)
                    fail("SQRT takes one argument");
                return Value::make(ValOp::Sqrt, std::move(args));
            }
            if (args.size() != 2)
                fail(std::string(op) + " takes two arguments");
            ValOp vop = op == "MIN" ? ValOp::Min
                                    : (op == "MAX" ? ValOp::Max
                                                   : ValOp::IMod);
            return Value::make(vop, std::move(args));
        }

        if (arrays_.find(name) != arrays_.end())
            return Value::makeLoad(parseRefAfterName(name));
        auto it = vars_.find(name);
        if (it != vars_.end())
            return Value::makeIndex(AffineExpr::makeVar(it->second));
        fail("unknown identifier '" + std::string(name) + "'");
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
          case ValOp::Sub:
          case ValOp::Mul: {
            auto a = tryAffine(v->kids[0]);
            if (!a)
                return std::nullopt;
            auto b = tryAffine(v->kids[1]);
            if (!b)
                return std::nullopt;
            if (v->op == ValOp::Add)
                return *a + *b;
            if (v->op == ValOp::Sub)
                return *a - *b;
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
     *  Index leaves so parse(print(p)) prints identically. A subtree
     *  with nothing to collapse is returned as is, not copied. */
    ValuePtr
    fold(const ValuePtr &v)
    {
        if (v->kids.empty())
            return v;
        auto aff = tryAffine(v);
        if (aff && !aff->isConstant())
            return Value::makeIndex(std::move(*aff));
        std::vector<ValuePtr> kids;
        for (size_t k = 0; k < v->kids.size(); ++k) {
            ValuePtr kid = fold(v->kids[k]);
            if (kids.empty() && kid == v->kids[k])
                continue;
            if (kids.empty()) {
                kids.reserve(v->kids.size());
                kids.assign(v->kids.begin(), v->kids.begin() + k);
            }
            kids.push_back(std::move(kid));
        }
        if (kids.empty())
            return v;
        auto out = std::make_shared<Value>();
        out->op = v->op;
        out->constant = v->constant;
        out->index = v->index;
        out->load = v->load;
        out->kids = std::move(kids);
        return out;
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
