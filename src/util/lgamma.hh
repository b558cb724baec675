/**
 * @file
 * log|Gamma(x)| without a data race. glibc's lgamma() also stores the
 * sign of Gamma(x) in the global `signgam`, so concurrent calls (BMBP
 * refits and grid publishes on different registry shards) race on it;
 * lgamma_r() returns the sign through an argument and computes the
 * same value. Header-only so obs, which sits below util's library,
 * can use it too.
 */

#ifndef QDEL_UTIL_LGAMMA_HH
#define QDEL_UTIL_LGAMMA_HH

#include <cmath>

namespace qdel {

inline double
logGammaReentrant(double x)
{
#if defined(__GLIBC__)
    int sign = 0;
    return ::lgamma_r(x, &sign);
#else
    return std::lgamma(x);
#endif
}

} // namespace qdel

#endif // QDEL_UTIL_LGAMMA_HH
