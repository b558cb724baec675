/**
 * @file
 * Bounded-memory accumulator for a stream of doubles with an exact
 * median, for replay runs whose accuracy-ratio series is too large to
 * keep resident (a billion-job trace produces ~8 GB of ratios).
 *
 * Values accumulate in RAM until @p threshold_doubles is exceeded, at
 * which point they spill to a scratch file and all subsequent values
 * stream through a small append buffer. The median is exact — not an
 * approximation — and reproduces stats::median() bit-for-bit: the two
 * central order statistics are located with a most-significant-digit
 * radix selection over the IEEE-754 total order (4 passes of a
 * 2^16-bucket histogram over the spill file), then combined with the
 * same type-7 interpolation arithmetic as stats::quantile(). Selection
 * scans the file sequentially, so resident memory stays O(append
 * buffer + histogram) no matter how many values were added.
 *
 * The total-order key refines operator< only up to signed zeros and
 * NaNs (-0.0 sorts below +0.0 here; std::sort leaves their relative
 * order unspecified, and NaN comparisons are UB there). Replay ratios
 * are finite and non-negative, so neither case changes the result.
 */

#ifndef QDEL_STATS_SPILL_DOUBLES_HH
#define QDEL_STATS_SPILL_DOUBLES_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/expected.hh"

namespace qdel {
namespace stats {

class SpillDoubles
{
  public:
    /**
     * @p spill_path names the scratch file (created lazily on first
     * spill, removed by the destructor). @p threshold_doubles caps the
     * in-RAM phase; the default keeps roughly 256 MiB resident before
     * spilling.
     */
    explicit SpillDoubles(std::string spill_path,
                          size_t threshold_doubles = size_t(1) << 25);
    ~SpillDoubles();

    SpillDoubles(const SpillDoubles &) = delete;
    SpillDoubles &operator=(const SpillDoubles &) = delete;

    void add(double value);
    void append(const double *values, size_t count);

    size_t size() const { return count_; }
    bool spilled() const { return file_ != nullptr; }

    /** Every value added so far; only meaningful while !spilled(). */
    const std::vector<double> &resident() const { return buffer_; }

    /** Drop all values (and any spill file), then hold @p values. */
    void reset(std::vector<double> values);

    /**
     * Exact median with stats::median() semantics (type-7 interpolation
     * of the two central order statistics). Errors on an empty sample
     * or scratch-file I/O failure. May be called repeatedly; the
     * accumulator stays usable for further add()s afterwards.
     */
    Expected<double> median();

  private:
    void maybeSpill();
    bool flushBuffer();
    Expected<double> selectSpilled(size_t rank_a, size_t rank_b,
                                   double frac);
    ParseError ioError(const std::string &what) const;

    std::string path_;
    size_t threshold_;
    std::vector<double> buffer_;
    std::FILE *file_ = nullptr;
    size_t count_ = 0;
    bool failed_ = false;
    std::string failReason_;
};

} // namespace stats
} // namespace qdel

#endif // QDEL_STATS_SPILL_DOUBLES_HH
