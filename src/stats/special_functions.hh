/**
 * @file
 * Special functions underpinning the distribution layer: log-gamma and
 * log-beta, the regularized incomplete beta and gamma functions, the
 * standard normal CDF, and the standard normal quantile (Wichura's
 * AS 241 / PPND16 algorithm).
 *
 * Everything here is deterministic, allocation-free, and accurate to
 * near machine precision over the parameter ranges exercised by the
 * predictors (binomial CDFs with n up to millions, noncentral-t series
 * with large noncentrality).
 */

#ifndef QDEL_STATS_SPECIAL_FUNCTIONS_HH
#define QDEL_STATS_SPECIAL_FUNCTIONS_HH

namespace qdel {
namespace stats {

/** Natural log of the gamma function (std::lgamma, minus the race on
 *  glibc's signgam; see util/lgamma.hh). */
double logGamma(double x);

/** Natural log of the beta function B(a, b). */
double logBeta(double a, double b);

/**
 * Regularized incomplete beta function I_x(a, b).
 *
 * Evaluated with the continued-fraction expansion (Numerical-Recipes
 * style betacf) using the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) to stay
 * in the rapidly converging region.
 *
 * @param a First shape parameter, a > 0.
 * @param b Second shape parameter, b > 0.
 * @param x Evaluation point in [0, 1].
 */
double incompleteBeta(double a, double b, double x);

/**
 * Regularized lower incomplete gamma function P(a, x).
 * Series expansion for x < a+1, continued fraction otherwise.
 */
double incompleteGammaLower(double a, double x);

/** Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x). */
double incompleteGammaUpper(double a, double x);

/** Standard normal cumulative distribution function Phi(x). */
double normalCdf(double x);

/** Standard normal density phi(x). */
double normalPdf(double x);

/**
 * Standard normal quantile Phi^{-1}(p) (Wichura AS 241, PPND16).
 * Accurate to ~1e-15 over (0, 1); returns +/-infinity at the endpoints.
 *
 * @param p Probability in [0, 1].
 */
double normalQuantile(double p);

/**
 * CDF of the binomial distribution: P[Bin(n, p) <= k].
 * Computed exactly through the incomplete beta identity
 * P[Bin(n,p) <= k] = I_{1-p}(n-k, k+1), valid for 0 <= k < n.
 *
 * @param k Number of successes (values < 0 give 0, >= n give 1).
 * @param n Number of trials, n >= 1.
 * @param p Per-trial success probability in [0, 1].
 */
double binomialCdf(long long k, long long n, double p);

/** Log of the binomial PMF: log P[Bin(n, p) = k]. */
double binomialLogPmf(long long k, long long n, double p);

} // namespace stats
} // namespace qdel

#endif // QDEL_STATS_SPECIAL_FUNCTIONS_HH
