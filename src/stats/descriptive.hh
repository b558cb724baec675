/**
 * @file
 * Descriptive statistics over samples: moments, quantiles, and the
 * lag-k autocorrelation used by BMBP to choose its rare-event run
 * length threshold.
 */

#ifndef QDEL_STATS_DESCRIPTIVE_HH
#define QDEL_STATS_DESCRIPTIVE_HH

#include <cstddef>
#include <vector>

namespace qdel {
namespace stats {

/** Compact summary of a sample (paper Table 1 columns). */
struct SummaryStats
{
    size_t count = 0;        //!< Number of observations.
    double mean = 0.0;       //!< Arithmetic mean.
    double median = 0.0;     //!< Sample median (midpoint for even n).
    double stddev = 0.0;     //!< Sample standard deviation (n-1).
    double min = 0.0;        //!< Smallest observation.
    double max = 0.0;        //!< Largest observation.
};

/** Arithmetic mean; 0 for an empty sample. */
double mean(const std::vector<double> &sample);

/** Sample variance with Bessel's correction; 0 when n < 2. */
double variance(const std::vector<double> &sample);

/** Sample standard deviation; 0 when n < 2. */
double stddev(const std::vector<double> &sample);

/** Median (average of the two central order statistics for even n). */
double median(std::vector<double> sample);

/**
 * Empirical quantile with linear interpolation between order statistics
 * (the common "type 7" definition). @p q must lie in [0, 1].
 * O(n): the two order statistics are found by selection (nth_element,
 * then the minimum of the tail past it), not by sorting @p sample.
 */
double quantile(std::vector<double> sample, double q);

/**
 * Lag-k sample autocorrelation:
 * r_k = sum (x_t - m)(x_{t+k} - m) / sum (x_t - m)^2.
 * Returns 0 when the series is shorter than k + 2 or has zero variance.
 */
double autocorrelation(const std::vector<double> &series, size_t lag);

/** Compute all SummaryStats fields in O(n) (a selection for median). */
SummaryStats summarize(const std::vector<double> &sample);

/**
 * Streaming accumulator for mean/variance over logs of observations,
 * used by the log-normal MLE predictor so refits are O(1).
 * Uses Welford's algorithm for numerical stability, and supports
 * rebuilding after history trims.
 */
class RunningMoments
{
  public:
    /** Add an observation. */
    void push(double x);

    /** Remove all state. */
    void clear();

    /** Number of observations. */
    size_t count() const { return count_; }

    /** Mean of the observations pushed so far. */
    double mean() const { return mean_; }

    /** Sample variance (n-1); 0 when n < 2. */
    double variance() const;

    /** Sample standard deviation. */
    double sd() const;

  private:
    size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

} // namespace stats
} // namespace qdel

#endif // QDEL_STATS_DESCRIPTIVE_HH
