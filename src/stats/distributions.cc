/**
 * @file
 * Implementation of the analytic distributions.
 */

#include "stats/distributions.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/special_functions.hh"
#include "util/logging.hh"

namespace qdel {
namespace stats {

// ---------------------------------------------------------------- Normal

NormalDist::NormalDist(double mu, double sigma)
    : mu_(mu), sigma_(sigma)
{
    if (!(sigma > 0.0))
        panic("NormalDist: sigma must be positive, got ", sigma);
}

double
NormalDist::cdf(double x) const
{
    return normalCdf((x - mu_) / sigma_);
}

double
NormalDist::pdf(double x) const
{
    return normalPdf((x - mu_) / sigma_) / sigma_;
}

double
NormalDist::quantile(double p) const
{
    return mu_ + sigma_ * normalQuantile(p);
}

// ------------------------------------------------------------- LogNormal

LogNormalDist::LogNormalDist(double mu, double sigma)
    : mu_(mu), sigma_(sigma)
{
    if (!(sigma > 0.0))
        panic("LogNormalDist: sigma must be positive, got ", sigma);
}

double
LogNormalDist::mean() const
{
    return std::exp(mu_ + 0.5 * sigma_ * sigma_);
}

double
LogNormalDist::median() const
{
    return std::exp(mu_);
}

double
LogNormalDist::variance() const
{
    const double s2 = sigma_ * sigma_;
    return (std::exp(s2) - 1.0) * std::exp(2.0 * mu_ + s2);
}

double
LogNormalDist::cdf(double x) const
{
    if (x <= 0.0)
        return 0.0;
    return normalCdf((std::log(x) - mu_) / sigma_);
}

double
LogNormalDist::pdf(double x) const
{
    if (x <= 0.0)
        return 0.0;
    return normalPdf((std::log(x) - mu_) / sigma_) / (x * sigma_);
}

double
LogNormalDist::quantile(double p) const
{
    return std::exp(mu_ + sigma_ * normalQuantile(p));
}

LogNormalDist
LogNormalDist::fromMeanMedian(double mean, double median)
{
    if (!(median > 0.0))
        panic("LogNormalDist::fromMeanMedian: median must be positive");
    const double mu = std::log(median);
    double ratio = mean / median;
    // A heavy-tailed queue always has mean >= median; clamp degenerate
    // calibration inputs instead of failing.
    if (ratio < 1.0 + 1e-9)
        ratio = 1.0 + 1e-9;
    const double sigma = std::sqrt(2.0 * std::log(ratio));
    return LogNormalDist(mu, std::max(sigma, 1e-6));
}

// -------------------------------------------------------------- StudentT

StudentTDist::StudentTDist(double nu)
    : nu_(nu)
{
    if (!(nu > 0.0))
        panic("StudentTDist: nu must be positive, got ", nu);
}

double
StudentTDist::cdf(double t) const
{
    if (t == 0.0)
        return 0.5;
    const double x = nu_ / (nu_ + t * t);
    const double half_tail = 0.5 * incompleteBeta(0.5 * nu_, 0.5, x);
    return t > 0.0 ? 1.0 - half_tail : half_tail;
}

double
StudentTDist::quantile(double p) const
{
    if (p <= 0.0)
        return -std::numeric_limits<double>::infinity();
    if (p >= 1.0)
        return std::numeric_limits<double>::infinity();
    if (p == 0.5)
        return 0.0;

    // Bracket around the normal-quantile starting guess, then bisect.
    double lo = -1.0, hi = 1.0;
    while (cdf(lo) > p)
        lo *= 2.0;
    while (cdf(hi) < p)
        hi *= 2.0;
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (cdf(mid) < p)
            lo = mid;
        else
            hi = mid;
        if (hi - lo < 1e-12 * (1.0 + std::fabs(hi)))
            break;
    }
    return 0.5 * (lo + hi);
}

// ----------------------------------------------------------- NoncentralT

NoncentralTDist::NoncentralTDist(double nu, double delta)
    : nu_(nu), delta_(delta)
{
    if (!(nu > 0.0))
        panic("NoncentralTDist: nu must be positive, got ", nu);
}

namespace {

/**
 * P[T <= t] for t >= 0 and arbitrary noncentrality del, following
 * Lenth (1989) AS 243 but summing the Poisson-weighted series outward
 * from its mode so that very large noncentrality (large sample sizes in
 * the tolerance-factor computation) does not underflow.
 */
double
noncentralTCdfNonneg(double t, double nu, double del)
{
    const double base = normalCdf(-del);
    if (t == 0.0)
        return base;

    const double t2 = t * t;
    const double x = t2 / (t2 + nu);
    const double b = 0.5 * nu;
    const double lambda = 0.5 * del * del;

    // Degenerate noncentrality: reduces to the central t.
    if (lambda < 1e-300) {
        return 0.5 + 0.5 * incompleteBeta(0.5, b, x);
    }

    const long long j0 = static_cast<long long>(lambda);
    const double log_lambda = std::log(lambda);

    // Term weights at the Poisson mode j0 (log space to avoid underflow).
    const double log_p0 =
        -lambda + j0 * log_lambda - logGamma(j0 + 1.0);
    const double log_q0_mag =
        std::log(std::fabs(del)) - 0.5 * std::log(2.0) - lambda +
        j0 * log_lambda - logGamma(j0 + 1.5);
    const double sign_q = del >= 0.0 ? 1.0 : -1.0;

    // Incomplete-beta values and decrement terms at the mode for the two
    // families a = j + 1/2 (p terms) and a = j + 1 (q terms).
    auto beta_term = [&](double a) {
        // T(a, b) = x^a (1-x)^b / (a B(a, b))
        return std::exp(a * std::log(x) + b * std::log1p(-x) -
                        std::log(a) - logBeta(a, b));
    };

    const double ap0 = j0 + 0.5;
    const double aq0 = j0 + 1.0;
    double ip_mode = incompleteBeta(ap0, b, x);
    double iq_mode = incompleteBeta(aq0, b, x);
    double tp_mode = beta_term(ap0);
    double tq_mode = beta_term(aq0);

    const double tol = 1e-17;
    double sum = 0.0;

    // Upward sweep: j = j0, j0+1, ...
    {
        double p = std::exp(log_p0);
        double q = std::exp(log_q0_mag);
        double ip = ip_mode;
        double iq = iq_mode;
        double tp = tp_mode;
        double tq = tq_mode;
        for (long long j = j0;; ++j) {
            const double contrib = p * ip + sign_q * q * iq;
            sum += contrib;
            if (p + q < tol && j > j0 + 4)
                break;
            if (j - j0 > 40000000LL) {
                warn("noncentralTCdf: upward series did not converge");
                break;
            }
            // Advance j -> j+1.
            const double ap = j + 0.5;
            const double aq = j + 1.0;
            ip -= tp;
            iq -= tq;
            tp *= x * (ap + b) / (ap + 1.0);
            tq *= x * (aq + b) / (aq + 1.0);
            p *= lambda / (j + 1.0);
            q *= lambda / (j + 1.5);
        }
    }

    // Downward sweep: j = j0-1, ..., 0.
    if (j0 > 0) {
        double p = std::exp(log_p0);
        double q = std::exp(log_q0_mag);
        double ip = ip_mode;
        double iq = iq_mode;
        double tp = tp_mode;
        double tq = tq_mode;
        for (long long j = j0 - 1; j >= 0; --j) {
            // Retreat j+1 -> j.
            const double ap = j + 0.5;  // target a for p family
            const double aq = j + 1.0;  // target a for q family
            tp *= (ap + 1.0) / (x * (ap + b));
            tq *= (aq + 1.0) / (x * (aq + b));
            ip += tp;
            iq += tq;
            p *= (j + 1.0) / lambda;
            q *= (j + 1.5) / lambda;

            const double contrib = p * ip + sign_q * q * iq;
            sum += contrib;
            if (p + q < tol)
                break;
        }
    }

    double result = base + 0.5 * sum;
    return std::clamp(result, 0.0, 1.0);
}

} // namespace

double
NoncentralTDist::cdf(double t) const
{
    if (t < 0.0)
        return 1.0 - noncentralTCdfNonneg(-t, nu_, -delta_);
    return noncentralTCdfNonneg(t, nu_, delta_);
}

double
NoncentralTDist::quantile(double p) const
{
    if (p <= 0.0)
        return -std::numeric_limits<double>::infinity();
    if (p >= 1.0)
        return std::numeric_limits<double>::infinity();

    // Initial guess: normal approximation around delta, then expand to
    // bracket and bisect.
    double center = delta_;
    double width = std::max(1.0, std::fabs(delta_) * 0.5);
    double lo = center - width;
    double hi = center + width;
    int guard = 0;
    while (cdf(lo) > p && guard++ < 200)
        lo -= width *= 1.6;
    width = std::max(1.0, std::fabs(delta_) * 0.5);
    guard = 0;
    while (cdf(hi) < p && guard++ < 200)
        hi += width *= 1.6;

    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (cdf(mid) < p)
            lo = mid;
        else
            hi = mid;
        if (hi - lo < 1e-10 * (1.0 + std::fabs(hi)))
            break;
    }
    return 0.5 * (lo + hi);
}

// ----------------------------------------------------------- Exponential

ExponentialDist::ExponentialDist(double rate)
    : rate_(rate)
{
    if (!(rate > 0.0))
        panic("ExponentialDist: rate must be positive, got ", rate);
}

double
ExponentialDist::cdf(double x) const
{
    return x <= 0.0 ? 0.0 : -std::expm1(-rate_ * x);
}

double
ExponentialDist::quantile(double p) const
{
    if (p >= 1.0)
        return std::numeric_limits<double>::infinity();
    return p <= 0.0 ? 0.0 : -std::log1p(-p) / rate_;
}

// ----------------------------------------------------------------- Gamma

GammaDist::GammaDist(double shape, double scale)
    : shape_(shape), scale_(scale)
{
    if (!(shape > 0.0) || !(scale > 0.0))
        panic("GammaDist: shape and scale must be positive");
}

double
GammaDist::cdf(double x) const
{
    return x <= 0.0 ? 0.0 : incompleteGammaLower(shape_, x / scale_);
}

double
GammaDist::quantile(double p) const
{
    if (p >= 1.0)
        return std::numeric_limits<double>::infinity();
    if (p <= 0.0)
        return 0.0;
    // Bracket [lo, hi] with cdf(lo) < p <= cdf(hi), then bisect until
    // the midpoint no longer separates them.
    double lo = 0.0;
    double hi = mean();
    while (cdf(hi) < p)
        hi *= 2.0;
    while (true) {
        const double mid = lo + (hi - lo) / 2.0;
        if (mid <= lo || mid >= hi)
            return hi;
        if (cdf(mid) < p)
            lo = mid;
        else
            hi = mid;
    }
}

// --------------------------------------------------------------- Weibull

WeibullDist::WeibullDist(double shape, double scale)
    : shape_(shape), scale_(scale)
{
    if (!(shape > 0.0) || !(scale > 0.0))
        panic("WeibullDist: non-positive parameter");
}

double
WeibullDist::cdf(double x) const
{
    if (x <= 0.0)
        return 0.0;
    return -std::expm1(-std::pow(x / scale_, shape_));
}

double
WeibullDist::quantile(double p) const
{
    if (p >= 1.0)
        return std::numeric_limits<double>::infinity();
    if (p <= 0.0)
        return 0.0;
    return scale_ * std::pow(-std::log1p(-p), 1.0 / shape_);
}

// ---------------------------------------------------------------- Pareto

ParetoDist::ParetoDist(double xm, double alpha)
    : xm_(xm), alpha_(alpha)
{
    if (!(xm > 0.0) || !(alpha > 0.0))
        panic("ParetoDist: non-positive parameter");
}

double
ParetoDist::cdf(double x) const
{
    if (x <= xm_)
        return 0.0;
    return 1.0 - std::pow(xm_ / x, alpha_);
}

double
ParetoDist::quantile(double p) const
{
    if (p >= 1.0)
        return std::numeric_limits<double>::infinity();
    if (p <= 0.0)
        return xm_;
    return xm_ * std::pow(1.0 - p, -1.0 / alpha_);
}

} // namespace stats
} // namespace qdel
