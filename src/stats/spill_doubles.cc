/**
 * @file
 * Implementation of the spilling exact-median accumulator.
 */

#include "stats/spill_doubles.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "stats/descriptive.hh"

namespace qdel {
namespace stats {

namespace {

/** Doubles held in RAM between appends once the stream has spilled. */
constexpr size_t kAppendChunk = size_t(1) << 20;  // 8 MiB

/** Doubles read per sequential scan step during selection. */
constexpr size_t kScanChunk = size_t(1) << 16;  // 512 KiB

constexpr uint64_t kSignBit = uint64_t(1) << 63;

/**
 * Order-preserving mapping from double to uint64_t: non-negative
 * values get the sign bit set, negative values are bitwise inverted,
 * so unsigned comparison of keys matches IEEE-754 total order.
 */
uint64_t
orderKey(double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return (bits & kSignBit) ? ~bits : (bits | kSignBit);
}

double
fromOrderKey(uint64_t key)
{
    const uint64_t bits = (key & kSignBit) ? (key ^ kSignBit) : ~key;
    double value;
    std::memcpy(&value, &bits, sizeof value);
    return value;
}

} // namespace

SpillDoubles::SpillDoubles(std::string spill_path, size_t threshold_doubles)
    : path_(std::move(spill_path)), threshold_(threshold_doubles)
{
}

SpillDoubles::~SpillDoubles()
{
    if (file_ != nullptr) {
        std::fclose(file_);
        std::remove(path_.c_str());
    }
}

void
SpillDoubles::reset(std::vector<double> values)
{
    if (file_ != nullptr) {
        std::fclose(file_);
        std::remove(path_.c_str());
        file_ = nullptr;
    }
    failed_ = false;
    failReason_.clear();
    count_ = values.size();
    buffer_ = std::move(values);
    maybeSpill();
}

void
SpillDoubles::add(double value)
{
    buffer_.push_back(value);
    ++count_;
    maybeSpill();
}

void
SpillDoubles::append(const double *values, size_t count)
{
    buffer_.insert(buffer_.end(), values, values + count);
    count_ += count;
    maybeSpill();
}

void
SpillDoubles::maybeSpill()
{
    if (failed_)
        return;
    if (file_ == nullptr) {
        if (count_ <= threshold_)
            return;
        file_ = std::fopen(path_.c_str(), "wb+");
        if (file_ == nullptr) {
            failed_ = true;
            failReason_ = "cannot create spill file: " +
                          std::string(std::strerror(errno));
            return;
        }
        flushBuffer();
        return;
    }
    if (buffer_.size() >= kAppendChunk)
        flushBuffer();
}

bool
SpillDoubles::flushBuffer()
{
    if (failed_ || buffer_.empty())
        return !failed_;
    // median() leaves the file positioned mid-stream after a selection
    // scan; always reposition before appending.
    if (std::fseek(file_, 0, SEEK_END) != 0 ||
        std::fwrite(buffer_.data(), sizeof(double), buffer_.size(),
                    file_) != buffer_.size()) {
        failed_ = true;
        failReason_ = "spill write failed: " +
                      std::string(std::strerror(errno));
        return false;
    }
    buffer_.clear();
    return true;
}

ParseError
SpillDoubles::ioError(const std::string &what) const
{
    return ParseError{path_, 0, "", what};
}

Expected<double>
SpillDoubles::median()
{
    if (failed_)
        return ioError(failReason_);
    if (count_ == 0)
        return ioError("median of empty sample");
    if (file_ == nullptr)
        return stats::median(buffer_);

    if (!flushBuffer())
        return ioError(failReason_);

    // Mirror stats::quantile(sample, 0.5) rank arithmetic exactly.
    const double position = 0.5 * static_cast<double>(count_ - 1);
    const size_t lower = static_cast<size_t>(position);
    const double frac = position - static_cast<double>(lower);
    if (lower + 1 >= count_) {
        auto back = selectSpilled(count_ - 1, count_ - 1, 0.0);
        if (!back.ok())
            return back.error();
        return back.value();
    }
    return selectSpilled(lower, lower + 1, frac);
}

/**
 * Locate the order statistics at @p rank_a and @p rank_b (0-based,
 * rank_a <= rank_b) with a 4-pass MSD radix selection, then return
 * a * (1 - frac) + b * frac — the exact expression stats::quantile()
 * evaluates, including the degenerate frac == 0 multiply.
 *
 * Each pass narrows each rank's key to a 16-bit-longer prefix by
 * histogramming the next digit of every value whose key matches the
 * prefix found so far. Both ranks ride the same file scan: while their
 * prefixes agree they share one histogram, after they diverge the scan
 * fills two.
 */
Expected<double>
SpillDoubles::selectSpilled(size_t rank_a, size_t rank_b, double frac)
{
    struct Cursor
    {
        uint64_t prefix = 0;
        size_t rank;
    };
    Cursor cursor[2] = {{0, rank_a}, {0, rank_b}};
    std::vector<uint64_t> hist[2];
    hist[0].assign(size_t(1) << 16, 0);
    hist[1].assign(size_t(1) << 16, 0);
    std::vector<double> chunk(kScanChunk);

    for (int pass = 0; pass < 4; ++pass) {
        const int shift = 48 - 16 * pass;
        const bool shared = cursor[0].prefix == cursor[1].prefix;
        std::fill(hist[0].begin(), hist[0].end(), 0);
        if (!shared)
            std::fill(hist[1].begin(), hist[1].end(), 0);

        if (std::fseek(file_, 0, SEEK_SET) != 0)
            return ioError("spill seek failed");
        size_t remaining = count_;
        while (remaining > 0) {
            const size_t want = std::min(chunk.size(), remaining);
            if (std::fread(chunk.data(), sizeof(double), want, file_) !=
                want)
                return ioError("spill read failed");
            remaining -= want;
            for (size_t i = 0; i < want; ++i) {
                const uint64_t key = orderKey(chunk[i]);
                const size_t digit = (key >> shift) & 0xffff;
                if (pass == 0) {
                    ++hist[0][digit];
                    continue;
                }
                const uint64_t known = key >> (shift + 16);
                if (known == cursor[0].prefix)
                    ++hist[0][digit];
                if (!shared && known == cursor[1].prefix)
                    ++hist[1][digit];
            }
        }

        for (int c = 0; c < 2; ++c) {
            const auto &counts = hist[shared ? 0 : c];
            uint64_t before = 0;
            bool found = false;
            for (size_t digit = 0; digit < counts.size(); ++digit) {
                if (before + counts[digit] > cursor[c].rank) {
                    cursor[c].prefix =
                        (cursor[c].prefix << 16) | digit;
                    cursor[c].rank -= before;
                    found = true;
                    break;
                }
                before += counts[digit];
            }
            if (!found)
                return ioError("spill selection lost its rank "
                               "(file changed mid-scan?)");
        }
    }

    const double a = fromOrderKey(cursor[0].prefix);
    const double b = fromOrderKey(cursor[1].prefix);
    return a * (1.0 - frac) + b * frac;
}

} // namespace stats
} // namespace qdel
