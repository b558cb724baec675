/**
 * @file
 * Analytic distribution objects: CDFs, quantile functions and moments
 * for the distributions used by the predictors (normal, log-normal,
 * Student t, noncentral t, binomial helpers) and by the workload
 * synthesizer / property tests (exponential, Weibull, Pareto, uniform).
 */

#ifndef QDEL_STATS_DISTRIBUTIONS_HH
#define QDEL_STATS_DISTRIBUTIONS_HH

namespace qdel {
namespace stats {

/** Normal distribution N(mu, sigma^2). */
class NormalDist
{
  public:
    /**
     * @param mu    Mean.
     * @param sigma Standard deviation, sigma > 0.
     */
    NormalDist(double mu, double sigma);

    double mean() const { return mu_; }
    double sd() const { return sigma_; }
    double cdf(double x) const;
    double pdf(double x) const;
    double quantile(double p) const;

  private:
    double mu_;
    double sigma_;
};

/** Log-normal distribution: log X ~ N(mu, sigma^2). */
class LogNormalDist
{
  public:
    LogNormalDist(double mu, double sigma);

    double mu() const { return mu_; }
    double sigma() const { return sigma_; }
    /** E[X] = exp(mu + sigma^2/2). */
    double mean() const;
    /** Median = exp(mu). */
    double median() const;
    /** Var[X]. */
    double variance() const;
    double cdf(double x) const;
    double pdf(double x) const;
    double quantile(double p) const;

    /**
     * Fit (mu, sigma) so the distribution matches a target mean and
     * median (used to calibrate synthetic queues to the paper's Table 1):
     * mu = log(median), sigma = sqrt(2 log(mean / median)).
     * Requires mean >= median > 0; degenerate inputs clamp sigma to a
     * small positive value.
     */
    static LogNormalDist fromMeanMedian(double mean, double median);

  private:
    double mu_;
    double sigma_;
};

/** Student's t distribution with nu degrees of freedom. */
class StudentTDist
{
  public:
    /** @param nu Degrees of freedom, nu > 0. */
    explicit StudentTDist(double nu);

    double cdf(double t) const;
    double quantile(double p) const;

  private:
    double nu_;
};

/**
 * Noncentral t distribution with nu degrees of freedom and
 * noncentrality delta. CDF follows Lenth (1989), Algorithm AS 243,
 * with Poisson-weighted incomplete-beta recurrences; the quantile is
 * obtained by bracketed bisection on the CDF.
 *
 * This is the machinery behind the K' one-sided normal tolerance factor
 * used by the paper's log-normal baseline (Guttman, Table 4.6).
 */
class NoncentralTDist
{
  public:
    /**
     * @param nu    Degrees of freedom, nu > 0.
     * @param delta Noncentrality parameter.
     */
    NoncentralTDist(double nu, double delta);

    double cdf(double t) const;
    double quantile(double p) const;

  private:
    double nu_;
    double delta_;
};

/** Exponential distribution with rate lambda. */
class ExponentialDist
{
  public:
    explicit ExponentialDist(double rate);

    double mean() const { return 1.0 / rate_; }
    double cdf(double x) const;
    double quantile(double p) const;

  private:
    double rate_;
};

/** Gamma distribution with shape k and scale theta (pgamma/qgamma). */
class GammaDist
{
  public:
    GammaDist(double shape, double scale);

    double mean() const { return shape_ * scale_; }
    double cdf(double x) const;
    /** Inverts cdf() by bisection to the last representable bit. */
    double quantile(double p) const;

  private:
    double shape_;
    double scale_;
};

/** Weibull distribution with shape k and scale lambda. */
class WeibullDist
{
  public:
    WeibullDist(double shape, double scale);

    double cdf(double x) const;
    double quantile(double p) const;

  private:
    double shape_;
    double scale_;
};

/** Pareto distribution with minimum xm and tail index alpha. */
class ParetoDist
{
  public:
    ParetoDist(double xm, double alpha);

    double cdf(double x) const;
    double quantile(double p) const;

  private:
    double xm_;
    double alpha_;
};

} // namespace stats
} // namespace qdel

#endif // QDEL_STATS_DISTRIBUTIONS_HH
