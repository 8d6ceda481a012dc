/**
 * @file
 * Clock readings in the units the reports and the serve stack use.
 *
 * Steady readings are for intervals and deadlines; their epoch is
 * arbitrary. Integral readings truncate, fractional ones keep the
 * sub-unit part. Which one a caller uses decides how its value prints
 * in JSON, so callers keep the type they report.
 */

#ifndef MEMORIA_SUPPORT_CLOCK_HH
#define MEMORIA_SUPPORT_CLOCK_HH

#include <chrono>
#include <cstdint>

namespace memoria {

namespace detail {

template <typename Rep, typename Period>
Rep
steadyNow()
{
    return std::chrono::duration_cast<std::chrono::duration<Rep, Period>>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace detail

/** Steady clock, whole milliseconds. */
inline int64_t
steadyMs()
{
    return detail::steadyNow<int64_t, std::milli>();
}

/** Steady clock, whole microseconds. */
inline int64_t
steadyUs()
{
    return detail::steadyNow<int64_t, std::micro>();
}

/** Steady clock, fractional milliseconds. */
inline double
steadyMsF()
{
    return detail::steadyNow<double, std::milli>();
}

/** Steady clock, fractional microseconds. */
inline double
steadyUsF()
{
    return detail::steadyNow<double, std::micro>();
}

/** Wall clock (Unix epoch), whole milliseconds. */
inline int64_t
wallMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

} // namespace memoria

#endif // MEMORIA_SUPPORT_CLOCK_HH
