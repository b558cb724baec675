/**
 * @file
 * Implementation of the descriptive statistics.
 */

#include "stats/descriptive.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace qdel {
namespace stats {

double
mean(const std::vector<double> &sample)
{
    if (sample.empty())
        return 0.0;
    double total = 0.0;
    for (double x : sample)
        total += x;
    return total / static_cast<double>(sample.size());
}

double
variance(const std::vector<double> &sample)
{
    const size_t n = sample.size();
    if (n < 2)
        return 0.0;
    const double m = mean(sample);
    double ss = 0.0;
    for (double x : sample) {
        const double d = x - m;
        ss += d * d;
    }
    return ss / static_cast<double>(n - 1);
}

double
stddev(const std::vector<double> &sample)
{
    return std::sqrt(variance(sample));
}

double
median(std::vector<double> sample)
{
    return quantile(std::move(sample), 0.5);
}

double
quantile(std::vector<double> sample, double q)
{
    if (sample.empty())
        panic("quantile: empty sample");
    if (q < 0.0 || q > 1.0)
        panic("quantile: q out of [0,1]: ", q);
    const double position = q * static_cast<double>(sample.size() - 1);
    const size_t lower = static_cast<size_t>(position);
    const double frac = position - static_cast<double>(lower);
    // nth_element leaves every value past `lower` >= the one at it, so
    // the next order statistic is the minimum of that tail.
    const auto at_lower = sample.begin() + static_cast<ptrdiff_t>(lower);
    std::nth_element(sample.begin(), at_lower, sample.end());
    if (lower + 1 >= sample.size())
        return *at_lower;
    const double upper = *std::min_element(at_lower + 1, sample.end());
    return *at_lower * (1.0 - frac) + upper * frac;
}

double
autocorrelation(const std::vector<double> &series, size_t lag)
{
    const size_t n = series.size();
    if (n < lag + 2)
        return 0.0;
    const double m = mean(series);
    double denom = 0.0;
    for (double x : series) {
        const double d = x - m;
        denom += d * d;
    }
    if (denom <= 0.0)
        return 0.0;
    double numer = 0.0;
    for (size_t t = 0; t + lag < n; ++t)
        numer += (series[t] - m) * (series[t + lag] - m);
    return numer / denom;
}

SummaryStats
summarize(const std::vector<double> &sample)
{
    SummaryStats s;
    s.count = sample.size();
    if (sample.empty())
        return s;
    s.mean = mean(sample);
    s.stddev = stddev(sample);
    s.median = median(sample);
    auto [mn, mx] = std::minmax_element(sample.begin(), sample.end());
    s.min = *mn;
    s.max = *mx;
    return s;
}

void
RunningMoments::push(double x)
{
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void
RunningMoments::clear()
{
    count_ = 0;
    mean_ = 0.0;
    m2_ = 0.0;
}

double
RunningMoments::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningMoments::sd() const
{
    return std::sqrt(variance());
}

} // namespace stats
} // namespace qdel
