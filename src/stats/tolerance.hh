/**
 * @file
 * One-sided normal tolerance factors (the K' of Guttman's Table 4.6,
 * used by the paper's log-normal baseline predictor, Section 4.2).
 *
 * An upper tolerance bound covering the q quantile of a normal
 * population with confidence C, from a sample of size n with mean m and
 * standard deviation s, is m + k * s where
 *
 *   k = t^{-1}_{nct}(C; df = n-1, ncp = z_q * sqrt(n)) / sqrt(n)
 *
 * (exact, via the noncentral t distribution). For large n we use the
 * standard closed-form approximation
 *
 *   k ~= (z_q + sqrt(z_q^2 - a b)) / a,
 *   a = 1 - z_C^2 / (2 (n-1)),   b = z_q^2 - z_C^2 / n,
 *
 * which agrees with the exact factor to well under 0.5% for n >= 50.
 *
 * normalToleranceFactor() is the one entry point predictors call. It
 * is memoized process-wide: for each distinct (q, C), keyed on their
 * exact bits, an append-only, never-freed row holds z_q, z_C and 299
 * slots for the exact factors n = 2..300. The memo returns exactly
 * the bits of normalToleranceFactorExact() (n <= 300) or
 * normalToleranceFactorApprox() (n > 300). It is thread-safe without
 * holding a lock across the inversion: slots are atomics (NaN = not
 * yet computed) that racing threads fill with identical bits, a hit
 * takes no lock, and a mutex guards only the prepend of a new row.
 * Memory grows with the distinct (q, C) pairs callers use, about
 * 2.4 KB each.
 */

#ifndef QDEL_STATS_TOLERANCE_HH
#define QDEL_STATS_TOLERANCE_HH

#include <cstddef>

namespace qdel {
namespace stats {

/**
 * Exact one-sided upper tolerance factor via the noncentral t quantile.
 *
 * @param n          Sample size, n >= 2.
 * @param q          Population quantile to cover, in (0, 1).
 * @param confidence Confidence level, in (0, 1).
 */
double normalToleranceFactorExact(size_t n, double q, double confidence);

/** Closed-form large-sample approximation of the tolerance factor. */
double normalToleranceFactorApprox(size_t n, double q, double confidence);

/**
 * Hybrid used by the log-normal predictor: exact (noncentral t) for
 * small samples where the approximation is weakest, the closed form
 * beyond. The crossover sample size is 300. Memoized process-wide and
 * safe to call from any thread (see the file comment).
 */
double normalToleranceFactor(size_t n, double q, double confidence);

} // namespace stats
} // namespace qdel

#endif // QDEL_STATS_TOLERANCE_HH
