/**
 * @file
 * Implementation of the calibration window and the self-contained
 * binomial tail.
 */

#include "obs/calibration.hh"

#include <algorithm>
#include <cmath>

#include "util/lgamma.hh"

namespace qdel {
namespace obs {

double
binomialTailBelow(uint64_t k, uint64_t n, double p)
{
    if (n == 0)
        return 1.0;
    if (!(p > 0.0))
        return 1.0;
    if (!(p < 1.0))
        return k >= n ? 1.0 : 0.0;
    if (k >= n)
        return 1.0;
    // Sum the pmf in log space: log C(n,i) + i log p + (n-i) log(1-p).
    // Accumulating the probabilities directly (not via log-sum-exp) is
    // fine here because each term is a plain positive double and the
    // sum is bounded by 1.
    const double logP = std::log(p);
    const double logQ = std::log1p(-p);
    const double lgN = logGammaReentrant(static_cast<double>(n) + 1.0);
    double sum = 0.0;
    for (uint64_t i = 0; i <= k; ++i) {
        const double di = static_cast<double>(i);
        const double logTerm =
            lgN - logGammaReentrant(di + 1.0) -
            logGammaReentrant(static_cast<double>(n - i) + 1.0) +
            di * logP + static_cast<double>(n - i) * logQ;
        sum += std::exp(logTerm);
    }
    return std::min(1.0, std::max(0.0, sum));
}

void
CalibrationWindow::record(bool hit)
{
    if (size_ < kCapacity) {
        slots_[size_++] = hit ? 1 : 0;
        hits_ += hit ? 1 : 0;
        return;
    }
    hits_ -= slots_[next_];
    slots_[next_] = hit ? 1 : 0;
    hits_ += hit ? 1 : 0;
    next_ = (next_ + 1) % kCapacity;
}

double
CalibrationWindow::coverage() const
{
    if (size_ == 0)
        return -1.0;
    return static_cast<double>(hits_) / static_cast<double>(size_);
}

void
CalibrationWindow::clear()
{
    slots_.fill(0);
    size_ = 0;
    next_ = 0;
    hits_ = 0;
}

std::vector<uint8_t>
CalibrationWindow::serialize() const
{
    std::vector<uint8_t> out;
    out.reserve(size_);
    // Oldest first: once full the cursor points at the oldest slot.
    const std::size_t start = size_ < kCapacity ? 0 : next_;
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(slots_[(start + i) % kCapacity]);
    return out;
}

void
CalibrationWindow::restore(const std::vector<uint8_t> &outcomes)
{
    clear();
    for (uint8_t outcome : outcomes)
        record(outcome != 0);
}

CalibrationVerdict
assessCalibration(std::size_t hits, std::size_t n, double confidence,
                  std::size_t minSamples, double alpha)
{
    CalibrationVerdict verdict;
    if (n == 0)
        return verdict;
    verdict.coverage =
        static_cast<double>(hits) / static_cast<double>(n);
    verdict.drift = verdict.coverage - confidence;
    verdict.pValue = binomialTailBelow(hits, n, confidence);
    verdict.failing = n >= minSamples && verdict.pValue < alpha;
    return verdict;
}

} // namespace obs
} // namespace qdel
