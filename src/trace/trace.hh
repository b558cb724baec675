/**
 * @file
 * Container for a job submission trace: the unit of data every
 * component of the library exchanges.
 */

#ifndef QDEL_TRACE_TRACE_HH
#define QDEL_TRACE_TRACE_HH

#include <string>
#include <vector>

#include "stats/descriptive.hh"
#include "trace/job_record.hh"

namespace qdel {
namespace trace {

/**
 * An ordered (by submission time) collection of jobs from one machine,
 * possibly spanning several queues.
 */
class Trace
{
  public:
    Trace() = default;

    /**
     * @param site    Site label, e.g. "sdsc".
     * @param machine Machine label, e.g. "datastar".
     */
    Trace(std::string site, std::string machine);

    const std::string &site() const { return site_; }
    const std::string &machine() const { return machine_; }
    void setSite(std::string site) { site_ = std::move(site); }
    void setMachine(std::string machine) { machine_ = std::move(machine); }

    /** Append a job (call sortBySubmitTime() afterwards if unordered). */
    void add(JobRecord job);

    /** Reserve capacity before bulk insertion. */
    void reserve(size_t capacity) { jobs_.reserve(capacity); }

    /** Stable-sort jobs by submission time. */
    void sortBySubmitTime();

    /** @return true when no job is submitted before its predecessor
     *  (std::is_sorted by submit time), in O(1). */
    bool isSorted() const { return sorted_; }

    size_t size() const { return jobs_.size(); }
    bool empty() const { return jobs_.empty(); }
    /** Read-only, so no write can unsort the jobs behind isSorted(). */
    const JobRecord &operator[](size_t i) const { return jobs_[i]; }

    std::vector<JobRecord>::const_iterator begin() const
    {
        return jobs_.begin();
    }
    std::vector<JobRecord>::const_iterator end() const
    {
        return jobs_.end();
    }

    /** All wait times, in submission order. */
    std::vector<double> waitTimes() const;

    /** Distinct queue names, in first-appearance order. */
    std::vector<std::string> queueNames() const;

    /** Jobs whose queue name equals @p queue (empty matches all). */
    Trace filterByQueue(const std::string &queue) const;

    /** Jobs whose processor count falls in @p range. */
    Trace filterByProcRange(const ProcRange &range) const;

    /** Jobs submitted within [begin, end). */
    Trace filterByTime(double begin, double end) const;

    /** Paper Table 1 columns for this trace's wait times. */
    stats::SummaryStats summary() const;

  private:
    std::string site_;
    std::string machine_;
    std::vector<JobRecord> jobs_;
    bool sorted_ = true;  //!< Kept by every member that changes jobs_.
};

} // namespace trace
} // namespace qdel

#endif // QDEL_TRACE_TRACE_HH
