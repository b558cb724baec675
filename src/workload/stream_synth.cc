/**
 * @file
 * Implementation of the streaming synthetic trace generator.
 */

#include "workload/stream_synth.hh"

#include <algorithm>
#include <cmath>

namespace qdel {
namespace workload {

namespace {

/** Stream-splitting constant for the dedicated arrival RNG. */
constexpr uint64_t kArrivalStreamSalt = 0x9e3779b97f4a7c15ull;

ArrivalTable
spanTable(const QueueProfile &profile)
{
    const TimeSpan span = profileSpan(profile);
    return ArrivalTable(span.begin, span.end, ArrivalModel{});
}

} // namespace

StreamingSynthesizer::StreamingSynthesizer(const QueueProfile &profile,
                                           StreamSynthOptions options)
    : profile_(profile),
      count_(options.jobCountOverride > 0
                 ? options.jobCountOverride
                 : static_cast<size_t>(profile.jobCount)),
      rng_(profileSeed(profile, options.baseSeed)),
      arrivalRng_(profileSeed(profile, options.baseSeed) ^
                  kArrivalStreamSalt),
      arrivals_(spanTable(profile))
{
    auto regimes = makeRegimeSchedule(profile, count_, rng_);
    sampler_.emplace(profile, std::move(regimes), count_, rng_);
}

double
StreamingSynthesizer::nextArrival()
{
    // Sequential sorted-uniform order statistic: with m draws left and
    // the previous sorted uniform u, the next is
    //   u + (1 - u) * (1 - V^(1/m)),  V ~ U(0,1),
    // computed via expm1 for accuracy when m is in the billions.
    const size_t m = count_ - produced_;
    const double v =
        std::max(arrivalRng_.uniform(), 1e-300);  // log(0) guard
    lastUniform_ +=
        (1.0 - lastUniform_) *
        (-std::expm1(std::log(v) / static_cast<double>(m)));
    lastUniform_ = std::min(lastUniform_, 1.0);
    return arrivals_.at(lastUniform_);
}

bool
StreamingSynthesizer::next(trace::JobRecord *job)
{
    if (produced_ >= count_)
        return false;

    const double submit = nextArrival();
    int procs = 0;
    double wait = 0.0;
    sampler_->sample(produced_, submit, rng_, &procs, &wait);

    job->submitTime = submit;
    job->waitSeconds = wait;
    job->procs = procs;
    job->queue = profile_.queue;
    ++produced_;
    return true;
}

} // namespace workload
} // namespace qdel
