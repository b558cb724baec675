/**
 * @file
 * The calibration verdict: the live analogue of the paper's
 * correct-fraction tables. A bound at confidence C must cover the
 * observed wait at least C of the time; assessCalibration() turns a
 * (hits, n) pair — the rolling window of outcomes sim::QueueCore keeps
 * for every replay and every served entry — into a verdict: drift from
 * the requested confidence plus a one-sided binomial test that flags a
 * window whose observed coverage is significantly below C.
 *
 * Only the declaration lives in the obs layer. The definition is in
 * qdel_replay, next to the window it judges, because the p-value is
 * stats::binomialCdf and qdel_obs links below qdel_stats.
 */

#ifndef QDEL_OBS_CALIBRATION_HH
#define QDEL_OBS_CALIBRATION_HH

#include <cstddef>

namespace qdel {
namespace obs {

/** assessCalibration() output for one window. */
struct CalibrationVerdict
{
    double coverage = -1.0;  //!< hits/n; -1 when n == 0.
    double drift = 0.0;      //!< coverage - confidence (negative = bad).
    double pValue = 1.0;     //!< P[X <= hits | n, confidence]; 1 at n = 0.
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
