/**
 * @file
 * Result bookkeeping shared by the workloads: operation and check
 * counters, named metrics with units, percentile helpers, and the
 * one-line JSON result the benchmark prints last.
 */

#ifndef QDEL_PERFBENCH_REPORT_HH
#define QDEL_PERFBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Seconds elapsed since @p startNs. */
inline double
secondsSince(int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/** Linear-interpolated quantile of @p values (sorted in place). */
double quantile(std::vector<double> &values, double q);

/** Median of @p values (copied). */
double median(std::vector<double> values);

/**
 * Samples tagged with the measurement window they fell in. Figures are
 * taken per window and reported as the median over windows, so one
 * scheduling stall of the machine moves one window rather than a whole
 * run's tail.
 */
class Windowed
{
  public:
    static constexpr int64_t kWindowNs = 250'000'000;
    /** Fewest samples a window needs to place a p99. */
    static constexpr size_t kMinSamples = 1000;

    /** Record @p value taken @p sinceStartNs into the measurement. */
    void add(double value, int64_t sinceStartNs);

    size_t size() const { return values_.size(); }

    /** Median over windows of each window's @p q quantile (over every
     *  sample when no window has kMinSamples). */
    double windowedQuantile(double q) const;

    /** Median over the windows wholly inside @p durationNs of samples
     *  per second. */
    double windowedRate(int64_t durationNs) const;

    /** Quantile @p q over every sample. */
    double overall(double q) const;

  private:
    std::vector<double> values_;
    std::vector<uint32_t> window_;
};

/** Command-line knobs every workload receives. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string binDir;   //!< Directory holding qdel_serve.
    std::string workDir;  //!< Scratch directory inside the checkout.
    unsigned cores = 1;   //!< Hardware threads the run may use.
};

/**
 * What a workload run produced. Operations are requests, replays or
 * events; checks are output verifications. Every failed operation and
 * every failed check counts into failed (and so into error_rate).
 */
class Report
{
  public:
    /** Record one metric for the JSON result line. */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** @return true when metric() recorded @p name. */
    bool hasMetric(const std::string &name) const;

    /** Names of every metric() recorded. */
    std::vector<std::string> metricNames() const;

    /** Record a figure for the human-readable section only. */
    void note(const std::string &name, double value,
              const std::string &unit);

    /** Count @p n attempted operations, @p failed of which failed. */
    void operations(uint64_t n, uint64_t failed = 0);

    /**
     * Record one output check; a false @p ok prints @p what and
     * counts as a failed operation.
     */
    bool check(bool ok, const std::string &what);

    /** Free-text line for the human-readable section. */
    void line(const std::string &text);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    bool correct() const { return checksFailed_ == 0 && failed_ == 0; }

    /** failed / attempted. */
    double errorRate() const;

    /** Print the human-readable section, then the JSON line. */
    void print() const;

  private:
    struct Value
    {
        double value;
        std::string unit;
    };
    std::vector<std::pair<std::string, Value>> metrics_;
    std::vector<std::pair<std::string, Value>> notes_;
    std::vector<std::string> lines_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    uint64_t checksFailed_ = 0;
};

/** Peak resident set (VmHWM) of process @p pid in MiB; 0 = self. */
double peakRssMb(int pid = 0);

/** Reset the calling process's VmHWM to its current resident set. */
void resetPeakRss();

/** User + system CPU time of process @p pid, seconds. */
double processCpuSeconds(int pid);

/** User + system CPU time of this process, seconds. */
double selfCpuSeconds();

} // namespace perfbench

#endif // QDEL_PERFBENCH_REPORT_HH
