/**
 * @file
 * Implementation of the synthetic trace generator.
 */

#include "workload/synthesizer.hh"

#include <algorithm>
#include <cmath>

#include "stats/distributions.hh"
#include "stats/special_functions.hh"
#include "util/logging.hh"
#include "workload/arrivals.hh"

namespace qdel {
namespace workload {

namespace {

/** Backfill-likelihood bias per Table-5 processor bin: small jobs slot
 *  into machine gaps more easily than large ones. */
constexpr double kFastBias[4] = {1.2, 1.0, 0.75, 0.55};

/** Figure-2 window (June 2004, datastar/normal): delay-factor override
 *  showing larger jobs being favored, as the paper observed. */
constexpr double kFigure2Factor[4] = {2.5, 1.0, 0.04, 1.6};
constexpr double kFigure2FastBias[4] = {0.6, 1.0, 1.5, 0.55};

/** Upper bounds used when drawing a concrete processor count per bin. */
constexpr int kBinLow[4] = {1, 5, 17, 65};
constexpr int kBinHigh[4] = {4, 16, 64, 256};

double
clampWeight(double w)
{
    return std::clamp(w, 0.0, 0.95);
}

} // namespace

MixtureCalibration
calibrateMixture(const QueueProfile &profile)
{
    MixtureCalibration cal;
    const double mean = profile.meanDelay;
    const double median = std::max(profile.medianDelay, 0.5);

    // The None and Mild classes share the same two-mode calibration
    // structure (overall median inside the congestion mode); they
    // differ in the weight and location of the fast mode. Even the
    // paper's best-behaved queues have a spike of near-instant starts
    // (submissions hitting an idle machine) — a *lower*-tail feature
    // that inflates a pooled log-normal fit's variance and makes its
    // tolerance bound over-cover, which is exactly why the paper's
    // log-normal columns read 0.96-1.00 on those queues.
    switch (profile.bimodality) {
      case Bimodality::None: {
        // Well-behaved queues: the bulk of the jobs live in a moderate
        // log-normal around the median; the large mean/median gap the
        // paper's Table 1 shows is carried by a *thin* extreme-delay
        // tail (a few percent of jobs hitting a jammed machine). A
        // pooled log-normal MLE over such data over-covers the .95
        // quantile — matching the 0.96-1.00 log-normal cells the paper
        // reports for these queues.
        const double ratio = mean / median;
        if (ratio <= 1.15) {
            // Near-symmetric queue (e.g. lanl/schammpq): single narrow
            // mode; the small mean mismatch is accepted.
            cal.mu2 = std::log(median);
            cal.sigma2 = 0.4;
            cal.mu1 = cal.mu2;
            cal.sigma1 = cal.sigma2;
            return cal;
        }
        const double wt = 0.02;
        const double sigma_b = 1.3;
        const double e_bulk_factor =
            std::exp(0.5 * sigma_b * sigma_b); // E/median of the bulk
        if (ratio <= (1.0 - wt) * e_bulk_factor) {
            // Moderate gap: a single log-normal already fits.
            auto dist = stats::LogNormalDist::fromMeanMedian(mean, median);
            cal.mu2 = dist.mu();
            cal.sigma2 = dist.sigma();
            cal.mu1 = cal.mu2;
            cal.sigma1 = cal.sigma2;
            return cal;
        }
        // Bulk + extreme tail. Overall median sits in the bulk:
        // (1-wt) F_b(M) = 0.5.
        const double zb = stats::normalQuantile(0.5 / (1.0 - wt));
        cal.mu2 = std::log(median) - sigma_b * zb;
        cal.sigma2 = sigma_b;
        cal.mu1 = cal.mu2;
        cal.sigma1 = cal.sigma2;
        const double e_bulk =
            std::exp(cal.mu2 + 0.5 * sigma_b * sigma_b);
        double e_tail = (mean - (1.0 - wt) * e_bulk) / wt;
        e_tail = std::max(e_tail, mean * 2.0);
        cal.tailWeight = wt;
        cal.sigmaT = 1.2;
        cal.muT = std::log(e_tail) - 0.5 * cal.sigmaT * cal.sigmaT;
        return cal;
      }
      case Bimodality::Mild: {
        const double w = 0.35;  // genuine backfill mode
        cal.sigma1 = 1.2;
        cal.mu1 = std::log(std::max(0.5, median / 60.0));
        cal.fastWeight = w;
        // Overall median: w + (1-w) F2(M) = 0.5  =>  F2(M) = (0.5-w)/(1-w)
        // (fast mode is essentially all below M), so
        // mu2 = log M - sigma2 * z0 with z0 = Phi^-1((0.5-w)/(1-w)) < 0.
        const double z0 =
            stats::normalQuantile((0.5 - w) / (1.0 - w)); // ~ -0.736
        // Overall mean pins sigma2:
        //   (1-w) exp(mu2 + sigma2^2/2) = mean - w E1
        const double e1 =
            std::exp(cal.mu1 + 0.5 * cal.sigma1 * cal.sigma1);
        double rhs = (mean - w * e1) / (1.0 - w);
        rhs = std::max(rhs, median * 1.05);
        const double target = std::log(rhs) - std::log(median);
        // 0.5 s^2 - z0 s - target = 0, take the positive root.
        const double disc = z0 * z0 + 2.0 * target;
        double sigma2 =
            disc > 0.0 ? (z0 + std::sqrt(disc)) : 0.3;
        sigma2 = std::clamp(sigma2, 0.3, 4.0);
        cal.sigma2 = sigma2;
        cal.mu2 = std::log(median) - sigma2 * z0;
        return cal;
      }
      case Bimodality::Strong: {
        // 65% of jobs backfill quickly; the overall median falls inside
        // the fast mode. The wide, well-separated congestion mode is
        // what a single log-normal MLE cannot capture: its pooled fit
        // underestimates the .95 quantile (the failures in the paper's
        // Tables 3/6/7 concentrate on exactly these short-median
        // queues).
        const double w = 0.65;
        cal.fastWeight = w;
        cal.sigma1 = 0.8;
        // Overall median: w F1(M) = 0.5  =>  F1(M) = 0.5/w.
        const double z1 = stats::normalQuantile(0.5 / w); // ~ +0.736
        cal.mu1 = std::log(median) - cal.sigma1 * z1;
        cal.sigma2 = 2.0;
        const double e1 =
            std::exp(cal.mu1 + 0.5 * cal.sigma1 * cal.sigma1);
        double e2 = (mean - w * e1) / (1.0 - w);
        e2 = std::max(e2, median * 4.0);
        cal.mu2 = std::log(e2) - 0.5 * cal.sigma2 * cal.sigma2;
        return cal;
      }
    }
    panic("calibrateMixture: unknown bimodality class");
}

std::vector<RegimeSegment>
makeRegimeSchedule(const QueueProfile &profile, size_t jobCount,
                   stats::Rng &rng)
{
    const int regimes = std::max(1, profile.regimeCount);
    std::vector<RegimeSegment> schedule;
    schedule.reserve(static_cast<size_t>(regimes));

    // Segment lengths: normalized Gamma(2)-ish weights so segments vary
    // but none is vanishingly short.
    std::vector<double> weights(static_cast<size_t>(regimes));
    double total = 0.0;
    for (auto &weight : weights) {
        weight = 0.5 + rng.exponential(1.0) + rng.exponential(1.0);
        total += weight;
    }

    // Regime level changes are proportional to the queue's intrinsic
    // delay spread: a queue whose delays span five orders of magnitude
    // can shift its level by x20, but a narrow near-symmetric queue
    // (e.g. lanl/schammpq, mean ~ median) only drifts gently.
    const double sigma_proxy = std::sqrt(
        2.0 * std::log(std::max(profile.meanDelay /
                                    std::max(profile.medianDelay, 0.5),
                                1.02)));
    const double level_scale = std::clamp(sigma_proxy / 1.3, 0.2, 1.0);

    double walk = 0.0;
    size_t start = 0;
    double consumed = 0.0;
    for (int r = 0; r < regimes; ++r) {
        RegimeSegment seg;
        seg.startIndex = start;
        // Regime level = upward trend (machines accrete users over
        // their lifetime) + a random walk around it.
        const double progress =
            regimes > 1 ? static_cast<double>(r) /
                              static_cast<double>(regimes - 1)
                        : 0.5;
        seg.muOffset =
            level_scale * (profile.trendRange * progress + walk);
        // Spread variation scales with the queue's overall
        // nonstationarity class: near-stationary queues keep a stable
        // shape, strongly nonstationary ones also change spread.
        seg.sigmaScale =
            std::exp(rng.normal(0.0, 0.6 * profile.regimeSpread));
        seg.weightScale = std::exp(rng.normal(0.0, 0.2));
        schedule.push_back(seg);

        consumed += weights[static_cast<size_t>(r)];
        start = static_cast<size_t>(
            std::llround(consumed / total * static_cast<double>(jobCount)));
        walk += rng.normal(0.0, profile.regimeSpread);
    }

    // Center the offsets (job-weighted) so the nonstationarity does not
    // shift the whole-trace median/mean away from the published Table 1
    // values the mixture was calibrated against.
    double weighted_sum = 0.0;
    for (size_t s = 0; s < schedule.size(); ++s) {
        const size_t seg_end = s + 1 < schedule.size()
                                   ? schedule[s + 1].startIndex
                                   : jobCount;
        weighted_sum += schedule[s].muOffset *
                        static_cast<double>(seg_end -
                                            schedule[s].startIndex);
    }
    const double center =
        jobCount > 0 ? weighted_sum / static_cast<double>(jobCount) : 0.0;
    for (auto &seg : schedule)
        seg.muOffset -= center;
    return schedule;
}

uint64_t
profileSeed(const QueueProfile &profile, uint64_t baseSeed)
{
    uint64_t hash = 1469598103934665603ull ^ baseSeed;
    auto mix = [&hash](const char *text) {
        for (const char *c = text; *c; ++c) {
            hash ^= static_cast<uint64_t>(static_cast<unsigned char>(*c));
            hash *= 1099511628211ull;
        }
    };
    mix(profile.site);
    mix("/");
    mix(profile.queue);
    return hash;
}

JobSampler::JobSampler(const QueueProfile &profile,
                       std::vector<RegimeSegment> regimes,
                       size_t jobCount, stats::Rng &rng)
    : profile_(profile), regimes_(std::move(regimes)), count_(jobCount),
      innovation_(std::sqrt(1.0 - profile.rho * profile.rho)),
      z_(0.0),
      // The favored-large-jobs regime begins in late May so predictors
      // have adapted by the plotted June window (the paper plots June
      // only).
      fig2Begin_(dateUnix(2004, 5, 20)), fig2End_(dateUnix(2004, 7, 1)),
      burstStart_(static_cast<size_t>(
          0.92 * static_cast<double>(jobCount)))
{
    // The regime offsets are centered in log space, but exp() is convex
    // so they still inflate the arithmetic mean of the waits. Measure
    // the inflation and calibrate the mixture against a deflated target
    // so the synthesized trace reproduces the published Table 1 mean.
    double inflation = 0.0;
    for (size_t s = 0; s < regimes_.size(); ++s) {
        const size_t seg_end =
            s + 1 < regimes_.size() ? regimes_[s + 1].startIndex : count_;
        inflation += std::exp(regimes_[s].muOffset) *
                     static_cast<double>(seg_end -
                                         regimes_[s].startIndex);
    }
    inflation =
        count_ > 0 ? inflation / static_cast<double>(count_) : 1.0;

    QueueProfile adjusted = profile;
    adjusted.meanDelay =
        std::max(profile.meanDelay / std::max(inflation, 1e-9),
                 profile.medianDelay * 1.05);
    cal_ = calibrateMixture(adjusted);

    z_ = rng.normal();
}

void
JobSampler::sample(size_t i, double submit, stats::Rng &rng, int *procs,
                   double *wait)
{
    while (regimeIdx_ + 1 < regimes_.size() &&
           regimes_[regimeIdx_ + 1].startIndex <= i) {
        ++regimeIdx_;
    }
    const RegimeSegment &regime = regimes_[regimeIdx_];

    // Shared latent autocorrelated state.
    z_ = profile_.rho * z_ + innovation_ * rng.normal();

    // Processor bin and concrete processor count.
    const int bin = rng.categorical(profile_.procMix, 4);
    *procs = static_cast<int>(rng.uniformInt(kBinLow[bin],
                                             kBinHigh[bin]));

    const bool in_fig2 = profile_.figure2Window &&
                         submit >= fig2Begin_ && submit < fig2End_;

    double factor = profile_.procDelayFactor[bin];
    double fast_bias = kFastBias[bin];
    if (in_fig2) {
        factor = kFigure2Factor[bin];
        fast_bias = kFigure2FastBias[bin];
    }

    double mu_offset = regime.muOffset;
    double weight = clampWeight(cal_.fastWeight * fast_bias *
                                regime.weightScale);
    // The terminal burst spares the 17-64 processor bin: the paper's
    // Table 5 shows lanl/short passing when subdivided to that range
    // even though the whole queue fails in Table 3.
    if (profile_.terminalBurst && i >= burstStart_ && bin != 2) {
        // The lanl/short end-of-log anomaly: the last 8% of jobs see
        // escalating, unusually long delays — fast enough that even
        // adaptive predictors cannot keep up (the paper's one BMBP
        // miss, Table 3).
        const double progress =
            static_cast<double>(i - burstStart_) /
            std::max(1.0, static_cast<double>(count_ - burstStart_));
        mu_offset += std::log(40.0) + 4.0 * progress;
        weight *= 0.3 * (1.0 - progress);
    }

    double drawn;
    const double mode_draw = rng.uniform();
    if (mode_draw < weight) {
        drawn = std::exp(cal_.mu1 + 0.3 * mu_offset + cal_.sigma1 * z_);
    } else if (mode_draw < weight + cal_.tailWeight) {
        // Rare extreme-delay mode (jammed machine); rides the same
        // regime level and processor-bin factor as the bulk.
        drawn = std::exp(cal_.muT + mu_offset + std::log(factor) +
                         cal_.sigmaT * z_);
    } else {
        drawn = std::exp(cal_.mu2 + mu_offset + std::log(factor) +
                         cal_.sigma2 * regime.sigmaScale * z_);
    }
    *wait = std::max(0.0, drawn);
}

trace::Trace
synthesizeTrace(const QueueProfile &profile, uint64_t baseSeed)
{
    stats::Rng rng(profileSeed(profile, baseSeed));
    const size_t count = static_cast<size_t>(profile.jobCount);

    const TimeSpan span = profileSpan(profile);
    const auto arrivals =
        generateArrivals(span.begin, span.end, count, ArrivalModel{}, rng);

    auto regimes = makeRegimeSchedule(profile, count, rng);
    JobSampler sampler(profile, std::move(regimes), count, rng);

    trace::Trace t(profile.site, profile.display);
    t.reserve(count);
    const uint32_t queue = t.internQueue(profile.queue);

    for (size_t i = 0; i < count; ++i) {
        int procs = 0;
        double wait = 0.0;
        sampler.sample(i, arrivals[i], rng, &procs, &wait);
        // Run time unknown, status completed: the JobRecord defaults.
        t.add(arrivals[i], wait, -1.0, 1, procs, queue);
    }

    return t;
}

} // namespace workload
} // namespace qdel
