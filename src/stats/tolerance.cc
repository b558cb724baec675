/**
 * @file
 * Implementation of the one-sided normal tolerance factors and the
 * process-wide K' table behind normalToleranceFactor().
 */

#include "stats/tolerance.hh"

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>

#include "stats/distributions.hh"
#include "stats/special_functions.hh"
#include "util/logging.hh"

namespace qdel {
namespace stats {

namespace {

/** Largest sample size given the exact (noncentral t) factor. */
constexpr size_t kExactMaxN = 300;

void
checkArgs(size_t n, double q, double confidence)
{
    if (n < 2)
        panic("normalToleranceFactor: need n >= 2, got ", n);
    if (!(q > 0.0) || !(q < 1.0))
        panic("normalToleranceFactor: q must lie in (0,1), got ", q);
    if (!(confidence > 0.0) || !(confidence < 1.0))
        panic("normalToleranceFactor: confidence must lie in (0,1)");
}

/**
 * The closed form from z_q and z_C. Empty when a <= 0: the sample is
 * pathologically small for the requested confidence, and the caller
 * falls back to the exact factor rather than produce nonsense.
 */
std::optional<double>
closedForm(size_t n, double zq, double zc)
{
    const double dn = static_cast<double>(n);
    const double a = 1.0 - zc * zc / (2.0 * (dn - 1.0));
    if (a <= 0.0)
        return std::nullopt;
    const double b = zq * zq - zc * zc / dn;
    double discriminant = zq * zq - a * b;
    if (discriminant < 0.0)
        discriminant = 0.0;
    return (zq + std::sqrt(discriminant)) / a;
}

/**
 * Memoized factors for one exact (q, C): z_q and z_C for the closed
 * form, and one slot per exact factor n = 2..300, NaN until computed.
 * Everything but the slots is fixed before the row is published.
 */
struct FactorRow
{
    FactorRow(double q_, double confidence_, FactorRow *next_)
        : q(q_), confidence(confidence_), zq(normalQuantile(q_)),
          zc(normalQuantile(confidence_)), next(next_)
    {
        for (auto &slot : exact)
            slot.store(std::numeric_limits<double>::quiet_NaN());
    }

    const double q;
    const double confidence;
    const double zq;
    const double zc;
    FactorRow *const next;
    std::array<std::atomic<double>, kExactMaxN - 1> exact;
};

/**
 * The table: a list of rows, newest first. Rows are only ever
 * prepended (under appendMutex) and never freed, so a reader that
 * loaded the head may walk it without a lock.
 */
std::atomic<FactorRow *> rowsHead{nullptr};
std::mutex appendMutex;

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

FactorRow *
findRow(FactorRow *row, double q, double confidence)
{
    for (; row != nullptr; row = row->next) {
        if (sameBits(row->q, q) && sameBits(row->confidence, confidence))
            return row;
    }
    return nullptr;
}

FactorRow &
rowFor(double q, double confidence)
{
    if (FactorRow *row = findRow(rowsHead.load(), q, confidence))
        return *row;
    std::lock_guard<std::mutex> lock(appendMutex);
    FactorRow *head = rowsHead.load();
    if (FactorRow *row = findRow(head, q, confidence))
        return *row;
    auto *row = new FactorRow(q, confidence, head);
    rowsHead.store(row);
    return *row;
}

} // namespace

double
normalToleranceFactorExact(size_t n, double q, double confidence)
{
    checkArgs(n, q, confidence);
    const double dn = static_cast<double>(n);
    const double ncp = normalQuantile(q) * std::sqrt(dn);
    NoncentralTDist nct(dn - 1.0, ncp);
    return nct.quantile(confidence) / std::sqrt(dn);
}

double
normalToleranceFactorApprox(size_t n, double q, double confidence)
{
    checkArgs(n, q, confidence);
    if (const auto k =
            closedForm(n, normalQuantile(q), normalQuantile(confidence)))
        return *k;
    return normalToleranceFactorExact(n, q, confidence);
}

double
normalToleranceFactor(size_t n, double q, double confidence)
{
    checkArgs(n, q, confidence);
    FactorRow &row = rowFor(q, confidence);
    if (n > kExactMaxN) {
        if (const auto k = closedForm(n, row.zq, row.zc))
            return *k;
        return normalToleranceFactorExact(n, q, confidence);
    }
    std::atomic<double> &slot = row.exact[n - 2];
    double k = slot.load();
    if (std::isnan(k)) {
        // No lock is held here: threads racing on an empty slot each
        // run the inversion and store identical bits.
        k = normalToleranceFactorExact(n, q, confidence);
        slot.store(k);
    }
    return k;
}

} // namespace stats
} // namespace qdel
