/**
 * @file
 * Online calibration primitives: the live analogue of the paper's
 * correct-fraction tables. A bound at confidence C must cover the
 * observed wait at least C of the time; CalibrationWindow keeps a
 * bounded chronological record of hit/miss outcomes for one predictor
 * entry so the service can report rolling empirical coverage, and
 * assessCalibration() turns a (hits, n) pair into a verdict — drift
 * from the requested confidence plus a one-sided binomial test that
 * flags an entry whose observed coverage is significantly below C.
 *
 * Everything here is deterministic and depends only on std and the
 * header-only util/lgamma.hh:
 * qdel_obs sits below qdel_stats in the link graph, so the binomial
 * tail is computed self-contained in log space via lgamma. Tests
 * cross-check it against stats::binomialCdf.
 */

#ifndef QDEL_OBS_CALIBRATION_HH
#define QDEL_OBS_CALIBRATION_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qdel {
namespace obs {

/**
 * Lower-tail binomial CDF P[X <= k] for X ~ Binomial(n, p), exact
 * log-space summation of the pmf. Monotone in k, clamped to [0, 1].
 * For the window sizes used here (n <= a few hundred) the summation
 * is both fast and accurate to ~1e-12.
 */
double binomialTailBelow(uint64_t k, uint64_t n, double p);

/**
 * Fixed-capacity chronological ring of hit/miss outcomes for one
 * (machine, queue, proc-bucket) entry. Oldest outcomes are evicted as
 * new ones arrive, so coverage() tracks *recent* behavior and recovers
 * after a refit fixes a drifting predictor — unlike lifetime counters,
 * which a long correct prefix can mask forever.
 *
 * Not thread-safe: the serve registry mutates it only under the owning
 * shard's writer lock, making the window a deterministic function of
 * the shard's event sequence (so WAL replay reconstructs it exactly).
 */
class CalibrationWindow
{
  public:
    static constexpr std::size_t kCapacity = 256;

    /** Record one scored outcome; evicts the oldest once full. */
    void record(bool hit);

    /** Outcomes currently held (<= kCapacity). */
    std::size_t count() const { return size_; }

    /** Hits among the held outcomes. */
    std::size_t hits() const { return hits_; }

    /** hits()/count(); -1 when empty (distinguishable from 0.0). */
    double coverage() const;

    /** Forget everything (test isolation / entry reset). */
    void clear();

    /**
     * Chronological dump, oldest outcome first, one byte per outcome
     * (0 = miss, 1 = hit). restore() replays a dump through record(),
     * so save -> restore round-trips the observable state exactly.
     */
    std::vector<uint8_t> serialize() const;
    void restore(const std::vector<uint8_t> &outcomes);

  private:
    std::array<uint8_t, kCapacity> slots_{};
    std::size_t size_ = 0;
    std::size_t next_ = 0;  //!< overwrite cursor once full.
    std::size_t hits_ = 0;
};

/** assessCalibration() output for one entry. */
struct CalibrationVerdict
{
    double coverage = -1.0;  //!< hits/n; -1 when n == 0.
    double drift = 0.0;      //!< coverage - confidence (negative = bad).
    double pValue = 1.0;     //!< P[X <= hits | n, confidence].
    bool failing = false;    //!< significantly under-covering.
};

/**
 * Judge observed coverage against the requested confidence. The flag
 * trips when the one-sided binomial test rejects "true coverage >= C"
 * at level @p alpha, i.e. P[Bin(n, C) <= hits] < alpha, and at least
 * @p minSamples outcomes back the verdict (small n trivially passes:
 * no evidence is not evidence of failure).
 */
CalibrationVerdict assessCalibration(std::size_t hits, std::size_t n,
                                     double confidence,
                                     std::size_t minSamples = 50,
                                     double alpha = 1e-3);

} // namespace obs
} // namespace qdel

#endif // QDEL_OBS_CALIBRATION_HH
