/**
 * @file
 * Reader for the daemon's Prometheus text exposition (/metrics).
 *
 * Workloads take one scrape before and one after each measured phase
 * and derive per-layer figures from the difference. Every family a
 * figure is derived from must be present in both scrapes: a missing
 * family is a failed check with the family named, so renaming a metric
 * in the program fails the benchmark loudly instead of silently
 * reporting zero for a layer.
 */

#ifndef QDEL_PERFBENCH_PROM_HH
#define QDEL_PERFBENCH_PROM_HH

#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Report;

/** One parsed /metrics body: series text ("name{labels}") -> value. */
class Scrape
{
  public:
    static Scrape parse(const std::string &text);

    /** Size of the parsed text. */
    size_t bytes() const { return bytes_; }

    /** @return true when a sample named @p series exists. */
    bool has(const std::string &series) const;
    double value(const std::string &series) const;

    /** Cumulative histogram buckets of family @p name, by upper bound
     *  (+inf last); empty when the family is absent. */
    std::vector<std::pair<double, double>>
    buckets(const std::string &name) const;

  private:
    std::map<std::string, double> samples_;
    size_t bytes_ = 0;
};

/** Histogram difference between two scrapes. */
struct HistogramDelta
{
    std::vector<std::pair<double, double>> buckets;  //!< (le, cumulative)
    double sum = 0.0;
    double count = 0.0;

    /** Quantile @p q, interpolated linearly inside its bucket. */
    double quantile(double q) const;
    double mean() const { return count > 0 ? sum / count : 0.0; }
};

/** The change in the daemon's metrics across one phase. */
class MetricsDelta
{
  public:
    /**
     * @param report Receives one failed check per missing family, and
     *               nothing when every requested family is present.
     */
    MetricsDelta(Scrape before, Scrape after, Report &report);

    /** Counter (or gauge) increase; 0 and a failed check if absent. */
    double counter(const std::string &name);

    /** Gauge value in the later scrape; 0 and a failed check if absent. */
    double gauge(const std::string &name);

    /** Histogram increase; empty and a failed check if absent. */
    HistogramDelta histogram(const std::string &name);

  private:
    bool require(const std::string &series);

    Scrape before_;
    Scrape after_;
    Report &report_;
};

} // namespace perfbench

#endif // QDEL_PERFBENCH_PROM_HH
