/**
 * @file
 * Text front end for the loop-nest language.
 *
 * Parses the Fortran-flavoured surface syntax the pretty printer
 * emits, closing the loop: programs can be written in plain text files,
 * optimized with the CLI, and printed back. The grammar is the subset
 * of Fortran 77 the paper's algorithms operate on:
 *
 *   PROGRAM name
 *     PARAMETER N = 64
 *     REAL*8 A(N,N), X(N)
 *     DO I = 1, N [, step]
 *       A(I,1) = (X(I) + 2.5) * A(I-1,1)
 *     ENDDO
 *   END
 *
 * Expressions support + - * /, unary minus, SQRT/MIN/MAX/MOD, array
 * references and numeric literals. Keywords and intrinsics match in
 * any case; names are case-sensitive. Subscripts written in [brackets]
 * parse as opaque (unanalyzable) subscripts.
 *
 * There is one expression grammar, and each token is lexed once. Every
 * subexpression carries its affine form when it has one: whole-number
 * constants, variables, +, -, and * by a constant. Loop bounds, extents
 * and subscripts take that form, and fail after the whole expression
 * when there is none. Value nodes are built only where a non-affine
 * operator (a division, a call, a load, a non-whole constant, a product
 * of two variables) needs them; a non-constant affine operand becomes
 * one Index leaf there, so parsing a printed program reaches a print
 * fixpoint.
 *
 * The parser is safe on hostile input: loop nesting and expression
 * nesting are bounded (64 and 256 levels), so deeply nested text
 * produces a ParseError instead of exhausting the stack. A number is
 * read from exactly its characters, and a malformed one, an integer
 * beyond int64, a zero loop step or a REAL*K beyond int is an error.
 * Every error carries the line and column of the offending token.
 */

#ifndef MEMORIA_FRONTEND_PARSER_HH
#define MEMORIA_FRONTEND_PARSER_HH

#include <optional>
#include <string>

#include "ir/program.hh"

namespace memoria {

/** A parse failure, with a human-readable location. */
struct ParseError
{
    int line = 0;
    std::string message;
    int col = 0;  ///< 1-based column of the offending token

    /** "line L:C: message" rendering for user-facing reports. */
    std::string str() const;
};

/**
 * Parse one program. Returns the program, or nullopt with `error`
 * filled in (when provided).
 */
std::optional<Program> parseProgram(const std::string &source,
                                    ParseError *error = nullptr);

} // namespace memoria

#endif // MEMORIA_FRONTEND_PARSER_HH
