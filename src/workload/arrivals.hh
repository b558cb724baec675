/**
 * @file
 * Job arrival-time generation: a nonhomogeneous Poisson-style process
 * with the diurnal and weekly cycles production HPC workloads exhibit
 * (arrival intensity peaks during working hours and dips on weekends).
 */

#ifndef QDEL_WORKLOAD_ARRIVALS_HH
#define QDEL_WORKLOAD_ARRIVALS_HH

#include <cstddef>
#include <vector>

#include "stats/rng.hh"

namespace qdel {
namespace workload {

/** Parameters of the cyclic arrival intensity. */
struct ArrivalModel
{
    /** Relative amplitude of the 24-hour cycle, in [0, 1). */
    double diurnalAmplitude = 0.6;
    /** Hour (UTC) of peak intensity within the day. */
    double peakHour = 14.0;
    /** Multiplier applied on Saturdays and Sundays, in (0, 1]. */
    double weekendFactor = 0.55;
};

/**
 * The piecewise-constant (hourly) integral of the arrival intensity
 * over one span, and its inverse. The span is cut into
 * ceil(span / 1 h) equal buckets, each weighted by the intensity at its
 * midpoint; mass inside a bucket is spread linearly over its width.
 *
 * bucketOf() returns exactly what a binary search (std::upper_bound)
 * over the cumulative masses returns, but starts from a guide index
 * (one entry per bucket, mapping an equal-mass slice of [0, total) to
 * the bucket holding its lower edge) and walks the one or two buckets
 * to the answer, so a lookup costs O(1) rather than O(log buckets).
 */
class ArrivalTable
{
  public:
    /** @pre end > begin (panics otherwise). */
    ArrivalTable(double begin, double end, const ArrivalModel &model);

    /** Number of hourly buckets (at least 1). */
    size_t buckets() const { return cumulative_.size() - 1; }

    /** Intensity mass of the whole span. */
    double total() const { return cumulative_.back(); }

    /**
     * The bucket holding mass @p target: the last b with
     * cumulative[b] <= target, clamped to [0, buckets() - 1].
     */
    size_t bucketOf(double target) const;

    /** Inverse CDF: the time at mass fraction @p u in [0, 1]. */
    double at(double u) const;

  private:
    double begin_;
    double width_;
    std::vector<double> cumulative_;  //!< buckets() + 1 prefix masses.
    std::vector<size_t> guide_;       //!< Start bucket per mass slice.
    double guideScale_;               //!< guide_.size() / total().
};

/**
 * Draw exactly @p count arrival timestamps in [begin, end) distributed
 * according to the cyclic intensity, returned sorted ascending.
 *
 * Implemented by inverse-CDF sampling through an ArrivalTable, which
 * gives the exact requested count — the property the Table 1
 * reproduction needs. The draws are sorted in place by a counting sort
 * on their hour followed by a sort inside each hour, which gives what
 * one std::sort of all draws gives.
 *
 * @param begin UNIX start of the span.
 * @param end   UNIX end of the span (exclusive), end > begin.
 * @param count Number of arrivals to draw.
 * @param model Cycle parameters.
 * @param rng   Seeded generator (one uniform per arrival).
 */
std::vector<double> generateArrivals(double begin, double end, size_t count,
                                     const ArrivalModel &model,
                                     stats::Rng &rng);

/** Intensity (relative, unnormalized) of the model at UNIX time @p t. */
double arrivalIntensity(const ArrivalModel &model, double t);

} // namespace workload
} // namespace qdel

#endif // QDEL_WORKLOAD_ARRIVALS_HH
