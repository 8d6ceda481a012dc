/**
 * @file
 * Recoverable diagnostics.
 *
 * The error-handling policy (docs/ROBUSTNESS.md): library code reports
 * problems *upward* as `Diag` values wrapped in `Result<T>`; only the
 * CLI may call `fatal`, and `panic` remains reserved for violated
 * internal invariants. A `Diag` carries a stable dotted code
 * ("interp.oob", "parse.depth", "validate.loop_var"), a human-readable
 * message, and an optional source location for front-end errors.
 *
 * Header-only so that low-level libraries (interpreter, frontend) can
 * produce diagnostics without linking against memoria_check.
 */

#ifndef MEMORIA_CHECK_DIAG_HH
#define MEMORIA_CHECK_DIAG_HH

#include <optional>
#include <string>
#include <utility>

#include "support/logging.hh"

namespace memoria {

/** One recoverable diagnostic. */
struct Diag
{
    /** Stable dotted identifier, e.g. "interp.oob". */
    std::string code;

    /** Human-readable description. */
    std::string message;

    /** Source location (0 = unknown); used by front-end diagnostics. */
    int line = 0;
    int col = 0;

    /** Render as "code: message" (with ":line:col" when known). */
    std::string
    str() const
    {
        std::string s = code;
        if (line > 0) {
            s += " at ";
            s += std::to_string(line);
            if (col > 0) {
                s += ':';
                s += std::to_string(col);
            }
        }
        s += ": ";
        s += message;
        return s;
    }

    static Diag
    error(std::string code, std::string message, int line = 0,
          int col = 0)
    {
        return Diag{std::move(code), std::move(message), line, col};
    }
};

/**
 * Either a value or a Diag. The success path is implicit (construct
 * from T); the failure path goes through `Result<T>::err`.
 */
template <typename T> class Result
{
  public:
    Result(T value) : value_(std::move(value)) {}

    static Result
    err(Diag d)
    {
        Result r;
        r.diag_ = std::move(d);
        return r;
    }

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    const T &
    value() const
    {
        MEMORIA_ASSERT(ok(), "Result::value on error: " << diag().str());
        return *value_;
    }

    T &
    value()
    {
        MEMORIA_ASSERT(ok(), "Result::value on error: " << diag().str());
        return *value_;
    }

    /** The diagnostic; only valid when !ok(). */
    const Diag &
    diag() const
    {
        MEMORIA_ASSERT(!ok(), "Result::diag on success");
        return *diag_;
    }

  private:
    Result() = default;

    std::optional<T> value_;
    std::optional<Diag> diag_;
};

/** Result<void>: success, or a Diag. */
template <> class Result<void>
{
  public:
    Result() = default;

    static Result
    err(Diag d)
    {
        Result r;
        r.diag_ = std::move(d);
        return r;
    }

    bool ok() const { return !diag_.has_value(); }
    explicit operator bool() const { return ok(); }

    const Diag &
    diag() const
    {
        MEMORIA_ASSERT(!ok(), "Result::diag on success");
        return *diag_;
    }

  private:
    std::optional<Diag> diag_;
};

/** Success-or-diagnostic; the `void` flavour of Result. */
using Status = Result<void>;

} // namespace memoria

#endif // MEMORIA_CHECK_DIAG_HH
