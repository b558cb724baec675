/**
 * @file
 * Container for a job submission trace: the unit of data every
 * component of the library exchanges.
 *
 * A Trace keeps its jobs as columns, the layout of a .qtc image
 * (trace_cache.hh): f64 submit, wait and run, i64 status, i32 procs
 * and a u32 queue id per job, 40 bytes in all, plus one queue-name
 * table the ids index. The parsers and the synthesizer append to the
 * columns, .qtc save/load and StreamingTraceReader::materialize() copy
 * them as arrays, and ReplaySimulator hands QueueCore pointers into
 * the submit and wait columns. A queue name is looked up when it is
 * interned (once per "; Queue:" directive or new name in the parsers,
 * once per trace in the synthesizer), never once per job.
 *
 * Code that reads rows keeps working: operator[] and iteration build a
 * JobRecord by value, queue name included.
 */

#ifndef QDEL_TRACE_TRACE_HH
#define QDEL_TRACE_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "stats/descriptive.hh"
#include "trace/job_record.hh"

namespace qdel {
namespace trace {

/** Read-only pointers to n rows of the six job columns: a Trace's, a
 *  mapped .qtc image's or a streamed batch's. */
struct ColumnsView
{
    size_t n = 0;
    const double *submit = nullptr;
    const double *wait = nullptr;
    const double *run = nullptr;
    const int64_t *status = nullptr;
    const int32_t *procs = nullptr;
    const uint32_t *queueId = nullptr;  //!< Indexes a queue-name table.
};

/** The six job columns, one element per job (see the file comment). */
struct TraceColumns
{
    std::vector<double> submit;     //!< JobRecord::submitTime.
    std::vector<double> wait;       //!< JobRecord::waitSeconds.
    std::vector<double> run;        //!< JobRecord::runSeconds.
    std::vector<int64_t> status;    //!< JobRecord::status.
    std::vector<int32_t> procs;     //!< JobRecord::procs.
    std::vector<uint32_t> queueId;  //!< Indexes a queue-name table.

    size_t size() const { return submit.size(); }
    void reserve(size_t capacity);
    void clear();

    void
    push(double submit_time, double wait_seconds, double run_seconds,
         int64_t job_status, int32_t job_procs, uint32_t queue_id)
    {
        submit.push_back(submit_time);
        wait.push_back(wait_seconds);
        run.push_back(run_seconds);
        status.push_back(job_status);
        procs.push_back(job_procs);
        queueId.push_back(queue_id);
    }

    ColumnsView view() const;

    /** Append a copy of the @p rows.n rows @p rows points at. */
    void append(const ColumnsView &rows);
};

/**
 * An ordered (by submission time) collection of jobs from one machine,
 * possibly spanning several queues.
 */
class Trace
{
  public:
    class const_iterator;

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

    /** The id of queue @p name in this trace's table, added if new. */
    uint32_t internQueue(std::string_view name);

    /** Append a job (call sortBySubmitTime() afterwards if unordered);
     *  its queue name is interned on every call. */
    void add(const JobRecord &job);

    /** Append a job by column values; @p queue_id from internQueue(). */
    void add(double submit_time, double wait_seconds, double run_seconds,
             long long status, int procs, uint32_t queue_id);

    /** Append every row of @p columns, whose queue ids come from this
     *  trace's internQueue(). They are copied into reserved room, or
     *  else taken whole by an empty trace; @p columns is left empty. */
    void append(TraceColumns &&columns);

    /** Append @p columns, whose queue ids index @p queue_names: each
     *  name is interned once and the ids are renumbered in place. */
    void append(TraceColumns &&columns,
                const std::vector<std::string> &queue_names);

    /** Reserve capacity before bulk insertion. */
    void reserve(size_t capacity) { columns_.reserve(capacity); }

    /** Stable-sort jobs by submission time. */
    void sortBySubmitTime();

    /** @return true when no job is submitted before its predecessor
     *  (std::is_sorted by submit time), in O(1). */
    bool isSorted() const { return sorted_; }

    /** @return true when every submit time is finite, in O(1). A NaN
     *  orders against nothing, so isSorted() cannot see it: (5, NaN, 3)
     *  has no descending pair. */
    bool submitTimesFinite() const { return finite_; }

    size_t size() const { return columns_.size(); }
    bool empty() const { return columns_.submit.empty(); }

    /** Job @p i as a row (a copy; the columns are read-only, so no
     *  write can unsort the jobs behind isSorted()). */
    JobRecord operator[](size_t i) const;

    const_iterator begin() const;
    const_iterator end() const;

    /** The columns, read-only; queueId indexes queueTable(). */
    const TraceColumns &columns() const { return columns_; }

    /** The queue-name table in id order. It may name queues no job is
     *  in (a filter keeps its input's table); queueNames() lists the
     *  ones in use. */
    const std::vector<std::string> &queueTable() const { return names_; }

    /** The ids of the queues that hold jobs, in first-appearance
     *  order: the numbering the .qtc and SWF writers give them. */
    std::vector<uint32_t> queueIdsInOrder() const;

    /** All wait times, in submission order. */
    std::vector<double> waitTimes() const { return columns_.wait; }

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
    /** The jobs at which @p keep is true, under this trace's table. */
    template <typename Keep>
    Trace subset(Keep keep) const;

    std::string site_;
    std::string machine_;
    TraceColumns columns_;
    std::vector<std::string> names_;
    std::map<std::string, uint32_t, std::less<>> ids_;  //!< names_ inverse.
    bool sorted_ = true;  //!< Kept by every member that changes columns_.
    bool finite_ = true;  //!< Kept beside sorted_.
};

/** Iterates a Trace's jobs as JobRecord values (see operator[]). */
class Trace::const_iterator
{
  public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = JobRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = JobRecord;

    const_iterator() = default;
    const_iterator(const Trace *trace, size_t index)
        : trace_(trace), index_(index)
    {
    }

    JobRecord operator*() const { return (*trace_)[index_]; }
    JobRecord operator[](difference_type k) const { return *(*this + k); }

    const_iterator &operator++() { ++index_; return *this; }
    const_iterator &operator--() { --index_; return *this; }
    const_iterator operator++(int) { auto old = *this; ++index_; return old; }
    const_iterator operator--(int) { auto old = *this; --index_; return old; }
    const_iterator &
    operator+=(difference_type k)
    {
        index_ += static_cast<size_t>(k);
        return *this;
    }
    const_iterator &operator-=(difference_type k) { return *this += -k; }
    friend const_iterator
    operator+(const_iterator it, difference_type k)
    {
        return it += k;
    }
    friend const_iterator
    operator+(difference_type k, const_iterator it)
    {
        return it += k;
    }
    friend const_iterator
    operator-(const_iterator it, difference_type k)
    {
        return it -= k;
    }
    friend difference_type
    operator-(const const_iterator &a, const const_iterator &b)
    {
        return static_cast<difference_type>(a.index_) -
               static_cast<difference_type>(b.index_);
    }
    friend bool
    operator==(const const_iterator &a, const const_iterator &b)
    {
        return a.index_ == b.index_;
    }
    friend auto
    operator<=>(const const_iterator &a, const const_iterator &b)
    {
        return a.index_ <=> b.index_;
    }

  private:
    const Trace *trace_ = nullptr;
    size_t index_ = 0;
};

inline Trace::const_iterator
Trace::begin() const
{
    return {this, 0};
}

inline Trace::const_iterator
Trace::end() const
{
    return {this, size()};
}

} // namespace trace
} // namespace qdel

#endif // QDEL_TRACE_TRACE_HH
