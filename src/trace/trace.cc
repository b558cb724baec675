/**
 * @file
 * Implementation of the Trace container.
 */

#include "trace/trace.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace qdel {
namespace trace {

namespace {

/** Reorder @p column so that element i is the old element order[i]. */
template <typename T>
void
permute(std::vector<T> &column, const std::vector<size_t> &order)
{
    std::vector<T> out;
    out.reserve(column.size());
    for (size_t from : order)
        out.push_back(column[from]);
    column.swap(out);
}

} // namespace

void
TraceColumns::reserve(size_t capacity)
{
    submit.reserve(capacity);
    wait.reserve(capacity);
    run.reserve(capacity);
    status.reserve(capacity);
    procs.reserve(capacity);
    queueId.reserve(capacity);
}

void
TraceColumns::clear()
{
    submit.clear();
    wait.clear();
    run.clear();
    status.clear();
    procs.clear();
    queueId.clear();
}

ColumnsView
TraceColumns::view() const
{
    return {size(),        submit.data(), wait.data(),   run.data(),
            status.data(), procs.data(),  queueId.data()};
}

void
TraceColumns::append(const ColumnsView &rows)
{
    submit.insert(submit.end(), rows.submit, rows.submit + rows.n);
    wait.insert(wait.end(), rows.wait, rows.wait + rows.n);
    run.insert(run.end(), rows.run, rows.run + rows.n);
    status.insert(status.end(), rows.status, rows.status + rows.n);
    procs.insert(procs.end(), rows.procs, rows.procs + rows.n);
    queueId.insert(queueId.end(), rows.queueId, rows.queueId + rows.n);
}

Trace::Trace(std::string site, std::string machine)
    : site_(std::move(site)), machine_(std::move(machine))
{
}

uint32_t
Trace::internQueue(std::string_view name)
{
    if (auto it = ids_.find(name); it != ids_.end())
        return it->second;
    const auto id = static_cast<uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(names_.back(), id);
    return id;
}

void
Trace::add(const JobRecord &job)
{
    add(job.submitTime, job.waitSeconds, job.runSeconds, job.status,
        job.procs, internQueue(job.queue));
}

void
Trace::add(double submit_time, double wait_seconds, double run_seconds,
           long long status, int procs, uint32_t queue_id)
{
    // std::is_sorted's own test, one consecutive pair at a time.
    if (!empty() && submit_time < columns_.submit.back())
        sorted_ = false;
    if (!std::isfinite(submit_time))
        finite_ = false;
    columns_.push(submit_time, wait_seconds, run_seconds, status, procs,
                  queue_id);
}

void
Trace::append(TraceColumns &&columns)
{
    const size_t old_size = size();
    if (old_size == 0 && columns_.submit.capacity() < columns.size())
        columns_ = std::move(columns);
    else
        columns_.append(columns.view());
    columns = {};
    const std::vector<double> &submit = columns_.submit;
    for (size_t i = old_size; i < submit.size(); ++i) {
        if (i > 0 && submit[i] < submit[i - 1])
            sorted_ = false;
        if (!std::isfinite(submit[i]))
            finite_ = false;
    }
}

void
Trace::append(TraceColumns &&columns,
              const std::vector<std::string> &queue_names)
{
    std::vector<uint32_t> ids;
    ids.reserve(queue_names.size());
    bool same = true;
    for (const std::string &name : queue_names) {
        ids.push_back(internQueue(name));
        same = same && ids.back() == ids.size() - 1;
    }
    if (!same) {
        for (uint32_t &id : columns.queueId)
            id = ids[id];
    }
    append(std::move(columns));
}

void
Trace::sortBySubmitTime()
{
    // Real traces are almost always submit-ordered already, and
    // stable_sort on sorted input is an identity.
    if (sorted_)
        return;
    // The permutation std::stable_sort would give the rows: it makes
    // the same comparisons on the same keys whatever it moves.
    const std::vector<double> &submit = columns_.submit;
    std::vector<size_t> order(size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return submit[a] < submit[b];
    });
    permute(columns_.submit, order);
    permute(columns_.wait, order);
    permute(columns_.run, order);
    permute(columns_.status, order);
    permute(columns_.procs, order);
    permute(columns_.queueId, order);
    // A NaN submit time orders against nothing, so the sort need not
    // leave every consecutive pair ordered: check rather than assume.
    sorted_ = std::is_sorted(columns_.submit.begin(), columns_.submit.end());
}

JobRecord
Trace::operator[](size_t i) const
{
    JobRecord job;
    job.submitTime = columns_.submit[i];
    job.waitSeconds = columns_.wait[i];
    job.procs = columns_.procs[i];
    job.runSeconds = columns_.run[i];
    job.queue = names_[columns_.queueId[i]];
    job.status = columns_.status[i];
    return job;
}

std::vector<uint32_t>
Trace::queueIdsInOrder() const
{
    std::vector<uint32_t> order;
    std::vector<bool> seen(names_.size(), false);
    for (uint32_t id : columns_.queueId) {
        if (!seen[id]) {
            seen[id] = true;
            order.push_back(id);
            if (order.size() == names_.size())
                break;
        }
    }
    return order;
}

std::vector<std::string>
Trace::queueNames() const
{
    std::vector<std::string> names;
    for (uint32_t id : queueIdsInOrder())
        names.push_back(names_[id]);
    return names;
}

template <typename Keep>
Trace
Trace::subset(Keep keep) const
{
    Trace out(site_, machine_);
    out.names_ = names_;
    out.ids_ = ids_;
    const TraceColumns &in = columns_;
    for (size_t i = 0; i < size(); ++i) {
        if (keep(i)) {
            out.add(in.submit[i], in.wait[i], in.run[i], in.status[i],
                    in.procs[i], in.queueId[i]);
        }
    }
    return out;
}

Trace
Trace::filterByQueue(const std::string &queue) const
{
    const auto it = ids_.find(queue);
    if (it == ids_.end())
        return subset([](size_t) { return false; });
    const uint32_t id = it->second;
    return subset([&](size_t i) { return columns_.queueId[i] == id; });
}

Trace
Trace::filterByProcRange(const ProcRange &range) const
{
    return subset(
        [&](size_t i) { return range.contains(columns_.procs[i]); });
}

Trace
Trace::filterByTime(double begin, double end) const
{
    return subset([&](size_t i) {
        const double submit = columns_.submit[i];
        return submit >= begin && submit < end;
    });
}

stats::SummaryStats
Trace::summary() const
{
    return stats::summarize(columns_.wait);
}

} // namespace trace
} // namespace qdel
