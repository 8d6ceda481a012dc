#include "support/logging.hh"

#include <cstdlib>
#include <iostream>

#include "support/trace.hh"

namespace memoria {

namespace {

LogLevel
levelFromEnv()
{
    const char *env = std::getenv("MEMORIA_LOG_LEVEL");
    if (!env)
        return LogLevel::Warn;
    std::string s(env);
    if (s == "quiet" || s == "0")
        return LogLevel::Quiet;
    if (s == "warn" || s == "1")
        return LogLevel::Warn;
    std::cerr << "warn: unknown MEMORIA_LOG_LEVEL '" << s
              << "' (want quiet|warn or 0|1)\n";
    return LogLevel::Warn;
}

LogLevel &
currentLevel()
{
    static LogLevel level = levelFromEnv();
    return level;
}

/** Print to stderr when allowed; always mirror into the trace sink. */
void
report(LogLevel level, const char *tag, const std::string &msg)
{
    if (obs::tracingEnabled())
        obs::traceEvent("log", tag, {{"msg", msg}});
    if (level <= currentLevel())
        std::cerr << tag << ": " << msg << std::endl;
}

} // namespace

void
setLogLevel(LogLevel level)
{
    currentLevel() = level;
}

void
fatal(const std::string &msg)
{
    if (obs::tracingEnabled())
        obs::traceEvent("log", "fatal", {{"msg", msg}});
    obs::flushTrace();
    std::cerr << "fatal: " << msg << std::endl;
    std::exit(1);
}

void
panic(const std::string &msg)
{
    if (obs::tracingEnabled())
        obs::traceEvent("log", "panic", {{"msg", msg}});
    obs::flushTrace();
    std::cerr << "panic: " << msg << std::endl;
    std::abort();
}

void
warn(const std::string &msg)
{
    report(LogLevel::Warn, "warn", msg);
}

} // namespace memoria
