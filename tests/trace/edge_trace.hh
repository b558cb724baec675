/**
 * @file
 * Shared by the SWF and native writer tests: a trace full of awkward
 * values, and a printf helper for the snprintf reference writers those
 * tests diff the buffered writers against.
 */

#ifndef QDEL_TESTS_TRACE_EDGE_TRACE_HH
#define QDEL_TESTS_TRACE_EDGE_TRACE_HH

#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace qdel {
namespace trace {
namespace edge {

/** vsnprintf into a string of exactly the formatted length. */
inline std::string printfString(const char *format, ...)
    __attribute__((format(printf, 1, 2)));

inline std::string
printfString(const char *format, ...)
{
    va_list args;
    va_start(args, format);
    va_list again;
    va_copy(again, args);
    const int length = std::vsnprintf(nullptr, 0, format, args);
    va_end(args);
    std::string out(static_cast<size_t>(length) + 1, '\0');
    std::vsnprintf(out.data(), out.size(), format, again);
    va_end(again);
    out.resize(static_cast<size_t>(length));
    return out;
}

/**
 * Doubles where printf-style rounding is easy to get wrong: halves
 * (round half to even), signed zeros, the edges of 2^52 and 2^53,
 * huge and non-finite values, then random bit patterns, random
 * magnitudes and random halves.
 */
inline std::vector<double>
edgeValues()
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> values = {
        0.5, -0.5, 1.5, 2.5, -2.5, -0.4, -0.0, 0.0, 0x1p52 - 1.0,
        0x1p52 - 0.5, 0x1p52, 0x1p52 + 1.0, 0x1p53 + 2.0, -(0x1p53 + 2.0),
        1e300, -1e300, DBL_MAX, -DBL_MAX, inf, -inf, nan, -nan, -1.0,
        999999.5, 1e6, 1234567.0, 1e-7, 4.9e-324, 86400.25};
    std::mt19937_64 gen(2024);
    for (int i = 0; i < 4000; ++i) {
        const uint64_t bits = gen();
        double pattern;
        std::memcpy(&pattern, &bits, sizeof pattern);
        values.push_back(pattern);
        const int exponent = static_cast<int>(gen() % 64) - 60;
        const double magnitude =
            std::ldexp(static_cast<double>(gen() >> 11), exponent);
        values.push_back((gen() & 1) ? -magnitude : magnitude);
        values.push_back(std::floor(magnitude) + 0.5);
    }
    return values;
}

/**
 * One job per edge value as the submit time, with the wait and run
 * columns drawn from other edge values (every 11th wait missing),
 * statuses 0, 1 and 5, processor counts up to INT_MAX, and queues
 * "alpha", "beta", "" (unnamed), one name with a NUL byte inside and
 * one longer than the writers' 1 MiB buffer.
 */
inline Trace
edgeTrace()
{
    const std::vector<double> values = edgeValues();
    const size_t n = values.size();
    const int procs[] = {1, 64, INT_MAX, 0};
    const long long statuses[] = {0, 1, 5};
    const std::string queues[] = {"alpha", "beta", "",
                                  std::string("nul\0tail", 8),
                                  std::string((1 << 20) + 17, 'x')};
    Trace t("edge site", "Edge Machine");
    for (size_t i = 0; i < n; ++i) {
        JobRecord job;
        job.submitTime = values[i];
        job.waitSeconds = i % 11 == 0 ? -1.0 : values[(i * 7 + 3) % n];
        job.runSeconds = values[(i * 13 + 5) % n];
        job.procs = procs[i % 4];
        job.status = statuses[i % 3];
        // The two odd names appear once each, late in the trace.
        job.queue = i == n / 2 ? queues[3]
                    : i == n - 2 ? queues[4]
                                 : queues[(i / 2) % 3];
        t.add(std::move(job));
    }
    return t;
}

} // namespace edge
} // namespace trace
} // namespace qdel

#endif // QDEL_TESTS_TRACE_EDGE_TRACE_HH
