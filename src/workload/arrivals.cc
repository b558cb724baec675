/**
 * @file
 * Implementation of the cyclic arrival generator.
 */

#include "workload/arrivals.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.hh"

namespace qdel {
namespace workload {

double
arrivalIntensity(const ArrivalModel &model, double t)
{
    const double seconds_of_day = std::fmod(t, 86400.0);
    const double hour = seconds_of_day / 3600.0;
    const double phase = 2.0 * M_PI * (hour - model.peakHour) / 24.0;
    double intensity = 1.0 + model.diurnalAmplitude * std::cos(phase);

    // UNIX day 0 (1970-01-01) was a Thursday; days 2 and 3 of each week
    // counted from Thursday are Saturday and Sunday.
    const long long day = static_cast<long long>(std::floor(t / 86400.0));
    const long long weekday = ((day % 7) + 7) % 7;
    if (weekday == 2 || weekday == 3)
        intensity *= model.weekendFactor;
    return intensity;
}

ArrivalTable::ArrivalTable(double begin, double end,
                           const ArrivalModel &model)
    : begin_(begin)
{
    if (!(end > begin))
        panic("ArrivalTable: empty span [", begin, ", ", end, ")");
    const double span = end - begin;
    const size_t buckets =
        std::max<size_t>(1, static_cast<size_t>(std::ceil(span / 3600.0)));
    width_ = span / static_cast<double>(buckets);

    cumulative_.assign(buckets + 1, 0.0);
    for (size_t b = 0; b < buckets; ++b) {
        const double mid = begin + (static_cast<double>(b) + 0.5) * width_;
        cumulative_[b + 1] =
            cumulative_[b] + arrivalIntensity(model, mid) * width_;
    }

    // Guide slice g covers masses [g, g + 1) / guideScale_ and starts at
    // the bucket holding its lower edge. Any start is correct (bucketOf
    // walks both ways); this one leaves a walk of about one bucket.
    guide_.resize(buckets);
    guideScale_ = static_cast<double>(buckets) / total();
    size_t b = 0;
    for (size_t g = 0; g < buckets; ++g) {
        const double edge = static_cast<double>(g) / guideScale_;
        while (b + 1 < buckets && cumulative_[b + 1] <= edge)
            ++b;
        guide_[g] = b;
    }
}

size_t
ArrivalTable::bucketOf(double target) const
{
    const size_t last = buckets() - 1;
    // At or past the total, and NaN, upper_bound lands on the end.
    if (!(target < total()))
        return last;
    const double slice = target * guideScale_;
    size_t b = slice > 0.0
                   ? guide_[std::min(static_cast<size_t>(slice), last)]
                   : 0;
    while (b > 0 && cumulative_[b] > target)
        --b;
    while (b < last && cumulative_[b + 1] <= target)
        ++b;
    return b;
}

double
ArrivalTable::at(double u) const
{
    const double target = u * total();
    const size_t b = bucketOf(target);
    // Interpolate linearly inside the bucket.
    const double mass_in_bucket = cumulative_[b + 1] - cumulative_[b];
    const double frac =
        mass_in_bucket > 0.0 ? (target - cumulative_[b]) / mass_in_bucket
                             : 0.5;
    return begin_ + (static_cast<double>(b) + frac) * width_;
}

std::vector<double>
generateArrivals(double begin, double end, size_t count,
                 const ArrivalModel &model, stats::Rng &rng)
{
    const ArrivalTable table(begin, end, model);
    std::vector<double> arrivals;
    arrivals.reserve(count);
    for (size_t i = 0; i < count; ++i)
        arrivals.push_back(table.at(rng.uniform()));

    // Sort in place: a counting (American flag) sort on the hour an
    // arrival falls in, then a sort inside each hour. The hour is
    // computed from the value by rounded steps that are each monotone,
    // so it never decreases as the value grows, and ordering by it
    // first gives the order one std::sort gives. Equal arrivals are
    // equal bits (no -0, no NaN), so the bytes match too.
    const size_t hours = table.buckets();
    const double per_second = static_cast<double>(hours) / (end - begin);
    const auto hour = [&](double t) -> size_t {
        const double h = (t - begin) * per_second;
        if (!(h > 0.0))
            return 0;
        return h < static_cast<double>(hours) ? static_cast<size_t>(h)
                                              : hours - 1;
    };
    // Hour h's arrivals go to [bound[h], bound[h + 1]).
    std::vector<size_t> bound(hours + 1, 0);
    for (double t : arrivals)
        ++bound[hour(t) + 1];
    std::partial_sum(bound.begin(), bound.end(), bound.begin());
    std::vector<size_t> next(bound.begin(), bound.end() - 1);
    for (size_t h = 0; h < hours; ++h) {
        // Swap each misplaced arrival into the next free slot of its
        // own hour, until one that belongs to hour h turns up.
        while (next[h] < bound[h + 1]) {
            double t = arrivals[next[h]];
            for (size_t k = hour(t); k != h; k = hour(t))
                std::swap(t, arrivals[next[k]++]);
            arrivals[next[h]++] = t;
        }
        std::sort(arrivals.begin() + static_cast<ptrdiff_t>(bound[h]),
                  arrivals.begin() + static_cast<ptrdiff_t>(bound[h + 1]));
    }
    return arrivals;
}

} // namespace workload
} // namespace qdel
