/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * `fatal` terminates because the *user* asked for something impossible
 * (bad configuration, malformed program); `panic` terminates because the
 * library itself is broken (violated internal invariant). `warn`
 * reports without terminating.
 *
 * Warnings are gated by a process-wide level, initialized from the
 * MEMORIA_LOG_LEVEL environment variable (`quiet`, `warn`, or 0..1)
 * and silenced by the CLI's -q flag. When a
 * trace sink is installed (support/trace.hh) every message is also
 * emitted as a `log` trace event, and `fatal`/`panic` flush the sink
 * before terminating so a crashing run still yields a usable trace.
 */

#ifndef MEMORIA_SUPPORT_LOGGING_HH
#define MEMORIA_SUPPORT_LOGGING_HH

#include <sstream>
#include <string>

namespace memoria {

/** Verbosity threshold: a message prints when its level <= current. */
enum class LogLevel
{
    Quiet = 0,  ///< only fatal/panic reach stderr
    Warn = 1,   ///< + warnings (the default)
};

/** Override the level (CLI -q flag; otherwise MEMORIA_LOG_LEVEL). */
void setLogLevel(LogLevel level);

/** Terminate with a user-level error message (exit code 1). */
[[noreturn]] void fatal(const std::string &msg);

/** Terminate with an internal-invariant violation message (aborts). */
[[noreturn]] void panic(const std::string &msg);

/** Print a non-fatal warning to stderr (level >= Warn). */
void warn(const std::string &msg);

/**
 * Check an internal invariant; calls panic with the failing condition
 * and location when it does not hold.
 */
#define MEMORIA_ASSERT(cond, msg)                                         \
    do {                                                                  \
        if (!(cond)) {                                                    \
            std::ostringstream os_;                                       \
            os_ << "assertion '" #cond "' failed at " << __FILE__ << ":"  \
                << __LINE__ << ": " << msg;                               \
            ::memoria::panic(os_.str());                                  \
        }                                                                 \
    } while (0)

} // namespace memoria

#endif // MEMORIA_SUPPORT_LOGGING_HH
