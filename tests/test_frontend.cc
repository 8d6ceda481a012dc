/** Front-end tests: parsing, errors, and print/parse round trips. */

#include <gtest/gtest.h>

#include "frontend/parser.hh"
#include "interp/interp.hh"
#include "ir/printer.hh"
#include "ir/walk.hh"
#include "suite/corpus.hh"
#include "suite/kernels.hh"
#include "transform/compound.hh"

namespace memoria {
namespace {

TEST(Parser, MinimalProgram)
{
    auto p = parseProgram(R"(
        PROGRAM tiny
          PARAMETER N = 8
          REAL*8 A(N)
          DO I = 1, N
            A(I) = I * 2
          ENDDO
        END
    )");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->name, "tiny");
    ASSERT_EQ(p->body.size(), 1u);
    Interpreter interp(*p);
    interp.run();
    EXPECT_DOUBLE_EQ(interp.arrayData(0)[3], 8.0);
}

TEST(Parser, MatmulSourceExecutesLikeBuilder)
{
    auto p = parseProgram(R"(
        PROGRAM matmul_IJK
          PARAMETER N = 10
          REAL*8 A(N,N)
          REAL*8 B(N,N)
          REAL*8 C(N,N)
          DO I = 1, N
            DO J = 1, N
              DO K = 1, N
                C(I,J) = (C(I,J) + A(I,K)*B(K,J))
              ENDDO
            ENDDO
          ENDDO
        END
    )");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(runChecksum(*p), runChecksum(makeMatmul("IJK", 10)));
}

TEST(Parser, TriangularAndStep)
{
    auto p = parseProgram(R"(
        PROGRAM tri
          PARAMETER N = 9
          REAL*8 A(N,N)
          DO I = N, 1, -1
            DO J = 1, I
              A(I,J) = SQRT(A(I,J)) + MIN(I, J)
            ENDDO
          ENDDO
        END
    )");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->body[0]->step, -1);
    EXPECT_EQ(runChecksum(*p), runChecksum(*p));
}

TEST(Parser, OpaqueSubscripts)
{
    auto p = parseProgram(R"(
        PROGRAM gather
          PARAMETER N = 6
          REAL*8 X(N), IND(N)
          DO I = 1, N
            X([IND(I)]) = X([IND(I)]) + 1.5
          ENDDO
        END
    )");
    ASSERT_TRUE(p.has_value());
    auto stmts = collectStmts(*p);
    EXPECT_FALSE(stmts[0].node->stmt.write.isAffine());
}

TEST(Parser, RegisterScalars)
{
    auto p = parseProgram(R"(
        PROGRAM reg
          PARAMETER N = 6
          REAL*8 A(N)
          REGISTER R0
          DO I = 1, N
            R0 = R0 + A(I)
          ENDDO
        END
    )");
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(p->arrays[1].isRegister);
    Interpreter interp(*p);
    interp.run();
    EXPECT_EQ(interp.stats().memRefs, 6u);  // only the A loads count
}

TEST(Parser, ErrorsCarryLineNumbers)
{
    ParseError err;
    auto p = parseProgram("PROGRAM x\n  REAL*8 A(N)\nEND", &err);
    EXPECT_FALSE(p.has_value());
    EXPECT_EQ(err.line, 2);  // N undeclared
    EXPECT_NE(err.message.find("unknown identifier"),
              std::string::npos);

    auto q = parseProgram("PROGRAM x\n  DO I = 1, 4\nEND", &err);
    EXPECT_FALSE(q.has_value());

    auto r = parseProgram(
        "PROGRAM x\n  PARAMETER N = 4\n  REAL*8 A(N)\n"
        "  A(1,2) = 0\nEND",
        &err);
    EXPECT_FALSE(r.has_value());
    EXPECT_NE(err.message.find("wrong rank"), std::string::npos);
}

TEST(Parser, CommentsIgnored)
{
    auto p = parseProgram(R"(
        PROGRAM c  ! the program
          PARAMETER N = 4   ! size
          REAL*8 A(N)
          DO I = 1, N       ! loop
            A(I) = 1        ! body
          ENDDO
        END
    )");
    ASSERT_TRUE(p.has_value());
}

/** A program declaring N = 8, A(N) and B(N), with `body` as its
 *  statements from line 4 on. */
std::string
withDecls(const std::string &body)
{
    return "PROGRAM x\n  PARAMETER N = 8\n  REAL*8 A(N), B(N)\n" + body +
           "END\n";
}

/** `body` inside a DO I = 1, N loop (line 4); its first line is 5. */
std::string
inLoop(const std::string &body)
{
    return withDecls("  DO I = 1, N\n" + body + "  ENDDO\n");
}

std::string
parens(int depth, const std::string &inner)
{
    return std::string(depth, '(') + inner + std::string(depth, ')');
}

struct ErrorCase
{
    const char *what;
    std::string source;
    int line;
    int col;
    std::string message;
};

/**
 * Bounds, extents and subscripts go through the one expression grammar
 * and must have an affine form. Whatever makes one not affine, the
 * error is the one a parser that built a Value tree for every
 * expression reported: the expected line, column and message below
 * are that parser's.
 */
TEST(Parser, AffineRewindKeepsEveryError)
{
    const std::string notAffine =
        "subscript is not affine (use [expr] for opaque)";
    const std::string depth =
        "expression nesting exceeds the depth limit of 256";
    const std::vector<ErrorCase> cases = {
        {"division in a subscript", inLoop("    A(I/2) = 1\n"), 5, 10,
         notAffine},
        {"division after affine terms", inLoop("    A(2*I/2 + 1) = 1\n"), 5,
         16, notAffine},
        {"array load in a subscript", inLoop("    A(B(I)) = 1\n"), 5, 11,
         notAffine},
        {"load in a subscript of a load",
         inLoop("    A(I) = B(I + B(1))\n"), 5, 22, notAffine},
        {"product of two variables", inLoop("    A(I*N) = 1\n"), 5, 10,
         notAffine},
        {"MOD in a bound",
         withDecls("  DO I = 1, MOD(N, 3)\n    A(I) = 1\n  ENDDO\n"), 5, 5,
         "expected an affine expression"},
        {"MIN in a bound",
         withDecls("  DO I = MIN(1, N), N\n    A(I) = 1\n  ENDDO\n"), 4, 19,
         "expected an affine expression"},
        {"MAX in a bound",
         withDecls("  DO I = 1, MAX(N, 2) - 1\n    A(I) = 1\n  ENDDO\n"), 5,
         5, "expected an affine expression"},
        {"SQRT in a bound",
         withDecls("  DO I = 1, 2 * SQRT(N)\n    A(I) = 1\n  ENDDO\n"), 5, 5,
         "expected an affine expression"},
        {"MIN with one argument in a bound",
         withDecls("  DO I = 1, MIN(N)\n    A(I) = 1\n  ENDDO\n"), 5, 5,
         "MIN takes two arguments"},
        {"real constant in an extent",
         "PROGRAM x\n  PARAMETER N = 8\n  REAL*8 A(N, 2.5)\nEND\n", 3, 18,
         "expected an affine expression"},
        {"256-deep parentheses in a subscript",
         inLoop("    A(" + parens(256, "I") + ") = 1\n"), 5, 263, depth},
        {"300-deep parentheses in a subscript",
         inLoop("    A(" + parens(300, "I") + ") = 1\n"), 5, 263, depth},
        {"subscript of a load one level too deep",
         inLoop("    A(I) = B(" + parens(255, "I") + ")\n"), 5, 269, depth},
        {"256-deep parentheses in a bound",
         withDecls("  DO I = 1, " + parens(256, "N") +
                   "\n    A(I) = 1\n  ENDDO\n"),
         4, 269, depth},
        {"unknown identifier in a subscript", inLoop("    A(I + K) = 1\n"),
         5, 12, "unknown identifier 'K'"},
        {"unknown identifier in a bound",
         withDecls("  DO I = 1, M\n    A(I) = 1\n  ENDDO\n"), 5, 5,
         "unknown identifier 'M'"},
        {"unknown identifier in an extent",
         "PROGRAM x\n  REAL*8 A(N)\nEND\n", 2, 13,
         "unknown identifier 'N'"},
        {"unclosed parenthesis in a subscript",
         inLoop("    A((I + 1) = 1\n"), 5, 15, "expected ')'"},
        {"lower-case do/enddo",
         "program x\n  parameter N = 8\n  real*8 A(N)\n  do I = 1, N\n"
         "    A(I*I) = 1\n  enddo\nend\n",
         5, 10, notAffine},
        {"names stay case-sensitive",
         "Program x\n  Parameter N = 8\n  Real*8 A(N)\n  Do I = 1, n\n"
         "    A(I) = 1\n  EndDo\nEnd\n",
         5, 5, "unknown identifier 'n'"},
        {"end of input after a comment on the same line",
         "PROGRAM x ! demo\n  DO I = 1, 4 ! open loop", 2, 26,
         "unexpected end of input"},
        {"error after comments and a tab",
         withDecls("  ! a comment line\n  DO I = 1, N   ! bounds\n"
                   "\t A(I/2) = 1 ! halve\n  ENDDO\n"),
         6, 8, notAffine},
        {"error on the line after a trailing comment",
         inLoop("    A(I) = Q ! unknown\n"), 6, 3,
         "unknown identifier 'Q'"},
    };
    for (const ErrorCase &c : cases) {
        ParseError err;
        EXPECT_FALSE(parseProgram(c.source, &err).has_value()) << c.what;
        EXPECT_EQ(err.line, c.line) << c.what;
        EXPECT_EQ(err.col, c.col) << c.what;
        EXPECT_EQ(err.message, c.message) << c.what;
    }
}

/** Affine positions accept what a Value tree folded to an affine form
 *  did: the depth limit's last legal level, integral real constants,
 *  nested products by constants, and lower-case keywords. */
TEST(Parser, AffineDirectPathMatchesValuePath)
{
    const std::vector<std::string> sources = {
        inLoop("    A(" + parens(255, "I") + ") = 1\n"),
        inLoop("    A(I) = B(" + parens(254, "I") + ")\n"),
        "PROGRAM x\n  PARAMETER N = 8\n  REAL*8 A(N, 2.0)\n"
        "  A(1, 2) = 1\nEND\n",
        inLoop("    A(-(2*(I - 1)*3) + 6*N - -1 - 5*N) = 2.0 * I\n"),
        "program x\n  parameter N = 8\n  real*8 A(N)\n  do I = 1, N\n"
        "    A(I) = I\n  enddo\nend\n",
    };
    for (const std::string &src : sources) {
        ParseError err;
        auto p = parseProgram(src, &err);
        ASSERT_TRUE(p.has_value()) << err.str() << "\n" << src;
        auto q = parseProgram(printProgram(*p), &err);
        ASSERT_TRUE(q.has_value()) << err.str();
        EXPECT_EQ(printProgram(*q), printProgram(*p));
    }
    auto p = parseProgram(
        inLoop("    A(-(2*(I - 1)*3) + 6*N - -1 - 5*N) = 1\n"));
    ASSERT_TRUE(p.has_value());
    const Subscript &sub = p->body[0]->body[0]->stmt.write.subs[0];
    ASSERT_TRUE(sub.isAffine());
    // -6*I + 6 + 6*N + 1 - 5*N, with I = var 1 and N = var 0.
    EXPECT_EQ(sub.affine, AffineExpr::makeVar(0) +
                              AffineExpr::makeVar(1, -6) + 7);
}

/** Inputs that used to reach an assertion, parse a prefix of a number
 *  or wrap an integer are errors at the offending token. */
TEST(Parser, RejectsBadStepsSizesAndLiterals)
{
    const std::string notAffine =
        "subscript is not affine (use [expr] for opaque)";
    const std::string huge = "99999999999999999999999";
    const std::vector<ErrorCase> cases = {
        {"zero step",
         withDecls("  DO I = 1, N, 0\n    A(I) = 1\n  ENDDO\n"), 4, 16,
         "loop step must be non-zero"},
        {"negative zero step",
         withDecls("  DO I = 1, N, -0\n    A(I) = 1\n  ENDDO\n"), 4, 16,
         "loop step must be non-zero"},
        {"two decimal points", inLoop("    A(I) = 1.5.3\n"), 5, 12,
         "malformed number '1.5.3'"},
        {"exponent without digits", inLoop("    A(I) = 2E\n"), 5, 12,
         "malformed number '2E'"},
        {"signed exponent without digits", inLoop("    A(I) = 2E+\n"), 5,
         12, "malformed number '2E+'"},
        {"two exponents", inLoop("    A(I) = 1e5e5\n"), 5, 12,
         "malformed number '1e5e5'"},
        {"a name glued to a number", inLoop("    A(2I) = 1\n"), 5, 7,
         "malformed number '2I'"},
        {"parameter out of int64 range",
         "PROGRAM x\n  PARAMETER N = " + huge + "\nEND\n", 2, 17,
         "number '" + huge + "' is out of range"},
        {"integer constant out of int64 range",
         inLoop("    A(I) = " + huge + "\n"), 5, 12,
         "number '" + huge + "' is out of range"},
        {"real constant out of double range", inLoop("    A(I) = 1e999\n"),
         5, 12, "number '1e999' is out of range"},
        {"whole real beyond int64 in a subscript",
         inLoop("    A(1e19) = 1\n"), 5, 11, notAffine},
        {"element size beyond int",
         "PROGRAM x\n  REAL*4294967304 A(8)\nEND\n", 2, 8,
         "element size 4294967304 is out of range"},
        {"negative element size beyond int",
         "PROGRAM x\n  REAL*-3000000000 A(8)\nEND\n", 2, 8,
         "element size -3000000000 is out of range"},
    };
    for (const ErrorCase &c : cases) {
        ParseError err;
        EXPECT_FALSE(parseProgram(c.source, &err).has_value()) << c.what;
        EXPECT_EQ(err.line, c.line) << c.what;
        EXPECT_EQ(err.col, c.col) << c.what;
        EXPECT_EQ(err.message, c.message) << c.what;
    }
}

/** A number's value comes from exactly its characters: integers
 *  exactly, in the whole int64 range, and every real form the printer
 *  writes. */
TEST(Parser, NumberLiteralsReadExactlyTheirCharacters)
{
    auto p = parseProgram("PROGRAM x\n"
                          "  PARAMETER N = 9007199254740993\n"
                          "  PARAMETER M = 9223372036854775807\n"
                          "  REAL*65535 A(8)\n"
                          "  A(1) = 1.\n"
                          "  A(2) = .5\n"
                          "  A(3) = 2.5E-3\n"
                          "  A(4) = 1e+06\n"
                          "  A(5) = 1.E1\n"
                          "END\n");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->vars[0].paramValue, 9007199254740993);
    EXPECT_EQ(p->vars[1].paramValue, INT64_MAX);
    EXPECT_EQ(p->arrays[0].elemSize, 65535);
    const double want[] = {1.0, 0.5, 2.5e-3, 1e6, 10.0};
    ASSERT_EQ(p->body.size(), 5u);
    for (size_t k = 0; k < 5; ++k) {
        const ValuePtr &rhs = p->body[k]->stmt.rhs;
        ASSERT_EQ(rhs->op, ValOp::Const) << k;
        EXPECT_EQ(rhs->constant, want[k]) << k;
    }
}

/** Round trip: print -> parse reaches a print fixpoint and preserves
 *  semantics, for every kernel. */
class RoundTrip : public ::testing::TestWithParam<int>
{
};

Program
kernelByIndex(int i)
{
    switch (i) {
      case 0:
        return makeMatmul("IKJ", 8);
      case 1:
        return makeMatmul("JKI", 8);
      case 2:
        return makeCholeskyKIJ(8);
      case 3:
        return makeCholeskyKJI(8);
      case 4:
        return makeAdiScalarized(8);
      case 5:
        return makeAdiFused(8);
      case 6:
        return makeErlebacherDistributed(6);
      case 7:
        return makeGmtry(8);
      case 8:
        return makeSimpleHydro(8);
      case 9:
        return makeVpenta(8);
      default:
        return makeJacobiBadOrder(8);
    }
}

TEST_P(RoundTrip, PrintParsePrintFixpoint)
{
    Program orig = kernelByIndex(GetParam());
    std::string text1 = printProgram(orig);

    ParseError err;
    auto p2 = parseProgram(text1, &err);
    ASSERT_TRUE(p2.has_value()) << err.line << ": " << err.message;
    EXPECT_EQ(runChecksum(*p2), runChecksum(orig));

    std::string text2 = printProgram(*p2);
    auto p3 = parseProgram(text2, &err);
    ASSERT_TRUE(p3.has_value()) << err.line << ": " << err.message;
    EXPECT_EQ(printProgram(*p3), text2);  // fixpoint after one round
}

INSTANTIATE_TEST_SUITE_P(Kernels, RoundTrip, ::testing::Range(0, 11));

TEST(RoundTripMore, TransformedProgramsStillParse)
{
    // Compound output (triangular interchange, fused bodies) must
    // round-trip too.
    ModelParams params;
    params.lineBytes = 32;
    for (int k = 0; k < 11; ++k) {
        Program p = kernelByIndex(k);
        compoundTransform(p, params);
        ParseError err;
        auto q = parseProgram(printProgram(p), &err);
        ASSERT_TRUE(q.has_value())
            << p.name << " " << err.line << ": " << err.message;
        EXPECT_EQ(runChecksum(*q), runChecksum(p)) << p.name;
    }
}

TEST(RoundTripMore, CorpusProgramsRoundTrip)
{
    for (const auto &spec : corpusSpecs()) {
        if (spec.nests == 0 && spec.loops == 0)
            continue;
        Program p = buildCorpusProgram(spec, 8);
        ParseError err;
        auto q = parseProgram(printProgram(p), &err);
        ASSERT_TRUE(q.has_value())
            << spec.name << " " << err.line << ": " << err.message;
        EXPECT_EQ(runChecksum(*q), runChecksum(p)) << spec.name;
    }
}

} // namespace
} // namespace memoria
