/**
 * @file
 * Implementation of the Trace container.
 */

#include "trace/trace.hh"

#include <algorithm>
#include <set>

namespace qdel {
namespace trace {

namespace {

bool
submittedBefore(const JobRecord &a, const JobRecord &b)
{
    return a.submitTime < b.submitTime;
}

} // namespace

Trace::Trace(std::string site, std::string machine)
    : site_(std::move(site)), machine_(std::move(machine))
{
}

void
Trace::add(JobRecord job)
{
    // std::is_sorted's own test, one consecutive pair at a time.
    if (!jobs_.empty() && submittedBefore(job, jobs_.back()))
        sorted_ = false;
    jobs_.push_back(std::move(job));
}

void
Trace::sortBySubmitTime()
{
    // Real traces are almost always submit-ordered already, and
    // stable_sort on sorted input is an identity.
    if (sorted_)
        return;
    std::stable_sort(jobs_.begin(), jobs_.end(), submittedBefore);
    // A NaN submit time orders against nothing, so the sort need not
    // leave every consecutive pair ordered: check rather than assume.
    sorted_ = std::is_sorted(jobs_.begin(), jobs_.end(), submittedBefore);
}

std::vector<double>
Trace::waitTimes() const
{
    std::vector<double> waits;
    waits.reserve(jobs_.size());
    for (const auto &job : jobs_)
        waits.push_back(job.waitSeconds);
    return waits;
}

std::vector<std::string>
Trace::queueNames() const
{
    std::vector<std::string> names;
    std::set<std::string> seen;
    for (const auto &job : jobs_) {
        if (seen.insert(job.queue).second)
            names.push_back(job.queue);
    }
    return names;
}

Trace
Trace::filterByQueue(const std::string &queue) const
{
    Trace out(site_, machine_);
    for (const auto &job : jobs_) {
        if (queue.empty() || job.queue == queue)
            out.add(job);
    }
    return out;
}

Trace
Trace::filterByProcRange(const ProcRange &range) const
{
    Trace out(site_, machine_);
    for (const auto &job : jobs_) {
        if (range.contains(job.procs))
            out.add(job);
    }
    return out;
}

Trace
Trace::filterByTime(double begin, double end) const
{
    Trace out(site_, machine_);
    for (const auto &job : jobs_) {
        if (job.submitTime >= begin && job.submitTime < end)
            out.add(job);
    }
    return out;
}

stats::SummaryStats
Trace::summary() const
{
    return stats::summarize(waitTimes());
}

} // namespace trace
} // namespace qdel
