/**
 * @file
 * Out-of-core synthetic trace generation: the same generative model as
 * synthesizeTrace() (mixture calibration, regime random walk, latent
 * AR(1), processor-bin delay factors, figure-2 window, terminal
 * burst), restructured so jobs are produced one at a time in submission
 * order with O(1) memory per job — the source side of a billion-job
 * shard set.
 *
 * The in-memory generator draws all arrival uniforms, sorts them, and
 * only then walks the jobs; that sort is what pins its memory to
 * O(n). The streaming generator instead draws *sorted* uniforms
 * directly via the sequential order-statistic recurrence
 *
 *   U_(k) = U_(k-1) + (1 - U_(k-1)) * (1 - V_k^(1/(n-k+1))),  V_k ~ U(0,1)
 *
 * and maps each through the same ArrivalTable inverse CDF that
 * generateArrivals() uses. Arrival draws come from a dedicated RNG
 * stream so the regime schedule and per-job draws are independent of
 * how arrivals are consumed.
 *
 * Determinism contract: the job sequence is a pure function of
 * (profile, options) — independent of how the caller batches next()
 * calls or of any downstream shard size. It is deliberately a
 * *different* deterministic family than synthesizeTrace(): matching it
 * byte-for-byte would require materializing and sorting the arrival
 * draws, the very cost this generator exists to avoid.
 */

#ifndef QDEL_WORKLOAD_STREAM_SYNTH_HH
#define QDEL_WORKLOAD_STREAM_SYNTH_HH

#include <cstdint>
#include <optional>

#include "stats/rng.hh"
#include "trace/job_record.hh"
#include "workload/arrivals.hh"
#include "workload/site_catalog.hh"
#include "workload/synthesizer.hh"

namespace qdel {
namespace workload {

/** Parameters of a streaming synthesis run. */
struct StreamSynthOptions
{
    uint64_t baseSeed = 1;
    /** Override the profile's job count (0 = use profile.jobCount). */
    size_t jobCountOverride = 0;
};

/** See file comment. */
class StreamingSynthesizer
{
  public:
    StreamingSynthesizer(const QueueProfile &profile,
                         StreamSynthOptions options = {});

    /** Jobs this stream will produce. */
    size_t jobCount() const { return count_; }

    /** Jobs produced so far. */
    size_t produced() const { return produced_; }

    /**
     * Produce the next job (submission order). @return false at end of
     * stream, in which case @p job is untouched.
     */
    bool next(trace::JobRecord *job);

  private:
    double nextArrival();

    const QueueProfile &profile_;
    size_t count_;
    size_t produced_ = 0;

    stats::Rng rng_;         //!< Schedule + per-job draws.
    stats::Rng arrivalRng_;  //!< Sorted-uniform arrival draws only.

    ArrivalTable arrivals_;  //!< The profile span's inverse CDF.
    double lastUniform_ = 0.0;

    // Per-job model core, shared with synthesizeTrace().
    std::optional<JobSampler> sampler_;
};

} // namespace workload
} // namespace qdel

#endif // QDEL_WORKLOAD_STREAM_SYNTH_HH
