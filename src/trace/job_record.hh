/**
 * @file
 * The job abstraction shared by the trace parsers, the workload
 * synthesizer, the batch-machine simulator, and the prediction replay
 * simulator.
 */

#ifndef QDEL_TRACE_JOB_RECORD_HH
#define QDEL_TRACE_JOB_RECORD_HH

#include <string>

namespace qdel {
namespace trace {

/**
 * One batch job as recorded by (or destined for) a scheduler log.
 *
 * Times are seconds. submitTime is an absolute UNIX timestamp;
 * waitSeconds is the queuing delay the paper predicts bounds for.
 */
struct JobRecord
{
    double submitTime = 0.0;   //!< UNIX time of submission.
    double waitSeconds = 0.0;  //!< Delay between submission and start;
                               //!< < 0 when the log did not record one.
    int procs = 1;             //!< Requested processor count.
    double runSeconds = -1.0;  //!< Execution time; < 0 when unknown.
    std::string queue;         //!< Queue name; empty when single-queue.
    long long status = 1;      //!< SWF completion status; 1 = completed,
                               //!< 0/5 = failed/cancelled, -1 = unknown.

    /** @return true when the log recorded a queuing delay for this job. */
    bool hasWait() const { return waitSeconds >= 0.0; }

    /** Time the job started executing. */
    double startTime() const { return submitTime + waitSeconds; }

    /** Time the job finished; only meaningful when runSeconds >= 0. */
    double endTime() const { return startTime() + runSeconds; }
};

/**
 * Half-open-ended inclusive processor-count range, e.g. the paper's
 * Table 5 bins 1-4, 5-16, 17-64, 65+ (maxProcs < 0 means unbounded).
 */
struct ProcRange
{
    int minProcs = 1;   //!< Inclusive lower limit.
    int maxProcs = -1;  //!< Inclusive upper limit; < 0 = unbounded.

    /** @return true when @p procs falls inside this range. */
    bool
    contains(int procs) const
    {
        return procs >= minProcs && (maxProcs < 0 || procs <= maxProcs);
    }

    /** Render as the paper's column labels: "1-4", "65+". */
    std::string label() const;
};

/** The four processor-count bins used throughout the paper's Section 6.2. */
const ProcRange *paperProcRanges(); // array of size paperProcRangeCount()

/** Number of paper bins (4). */
int paperProcRangeCount();

/**
 * Index into paperProcRanges() of the bin holding @p procs; procs < 1
 * clamps into the first bin. The one bucket rule of the offline
 * per-(queue, range) replay and of the online registry's keys.
 */
int procBucketFor(int procs);

} // namespace trace
} // namespace qdel

#endif // QDEL_TRACE_JOB_RECORD_HH
