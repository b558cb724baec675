/**
 * @file
 * Implementation of the single Section 5.1 replay core.
 */

#include "sim/replay/queue_core.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "obs/domain_metrics.hh"
#include "obs/obs.hh"
#include "persist/state_codec.hh"
#include "sim/replay/evaluation.hh"

namespace qdel {
namespace sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** @p t + @p step, but at least the next double: a step below the
 *  resolution of t would leave a tick re-arming at the same instant. */
double
stepClock(double t, double step)
{
    const double next = t + step;
    return next > t ? next : std::nextafter(t, kInf);
}

} // namespace

Expected<Unit>
ReplayProbe::validate() const
{
    if (!snapshotQuantiles.empty() &&
        (!(snapshotInterval > 0.0) || !std::isfinite(snapshotInterval))) {
        return ParseError{"", 0, "snapshotInterval",
                          "must be finite and > 0 when snapshot quantiles "
                          "are requested, got " +
                              std::to_string(snapshotInterval)};
    }
    for (const auto &[q, upper] : snapshotQuantiles) {
        if (!(q > 0.0 && q < 1.0)) {
            return ParseError{"", 0, "snapshotQuantiles",
                              "quantiles must be in (0, 1), got " +
                                  std::to_string(q)};
        }
    }
    if ((captureSeries || !snapshotQuantiles.empty()) &&
        (!std::isfinite(seriesBegin) || !std::isfinite(seriesEnd) ||
         !(seriesEnd >= seriesBegin))) {
        return ParseError{"", 0, "seriesBegin/seriesEnd",
                          "capture window must be finite with end >= begin"};
    }
    return Unit{};
}

QueueCore::QueueCore(core::Predictor &predictor, Rules rules,
                     const ReplayProbe *probe, std::string spill_path,
                     size_t spill_threshold)
    : predictor_(predictor), epochSeconds_(rules.epochSeconds),
      epochPerJob_(rules.epochSeconds <= 0.0),
      training_(rules.trainingJobs), probe_(probe),
      nextSnapshot_(probe != nullptr && !probe->snapshotQuantiles.empty()
                        ? probe->seriesBegin
                        : kInf),
      ratios_(std::move(spill_path), spill_threshold)
{
}

void
QueueCore::refit()
{
    predictor_.refit();
    dirty_ = false;
    moved_ = true;
}

void
QueueCore::fireEpoch(double now)
{
    if (dirty_)
        refit();
    if (probe_ != nullptr && probe_->captureSeries &&
        now >= probe_->seriesBegin && now < probe_->seriesEnd) {
        const auto bound = predictor_.upperBound();
        if (bound.finite())
            series_.push_back({now, bound.value});
    }
    nextRefit_ = stepClock(nextRefit_, epochSeconds_);
}

void
QueueCore::skipIdleEpochs(double limit)
{
    // An epoch over an unchanged history refits nothing, so a run of
    // them only moves the clock: jump it in one step, short by one
    // epoch of rounding margin that the loop covers, so a long quiet
    // gap costs O(1) rather than one iteration per epoch. Ticks the
    // series probe records are not idle.
    if (dirty_)
        return;
    if (probe_ != nullptr && probe_->captureSeries &&
        nextRefit_ < probe_->seriesEnd)
        limit = std::min(limit, probe_->seriesBegin);
    const double epochs =
        std::floor((limit - nextRefit_) / epochSeconds_) - 1.0;
    if (epochs >= 1.0 && std::isfinite(epochs))
        nextRefit_ += epochs * epochSeconds_;
}

void
QueueCore::fireSnapshot(double now)
{
    if (now < probe_->seriesEnd) {
        QuantileSnapshot snap{now, {}};
        for (const auto &[q, upper] : probe_->snapshotQuantiles)
            snap.values.push_back(predictor_.boundAt(q, upper).value);
        snapshots_.push_back(std::move(snap));
    }
    nextSnapshot_ = now < probe_->seriesEnd
                        ? stepClock(now, probe_->snapshotInterval)
                        : kInf;
}

void
QueueCore::advanceTo(double horizon)
{
    while (true) {
        const double t_release =
            pending_.empty() ? kInf : pending_.front().time;
        const double now = std::min({t_release, nextRefit_, nextSnapshot_});
        // Negated so a NaN horizon fires nothing.
        if (!(now <= horizon) || now == kInf)
            break;
        if (t_release <= nextRefit_ && t_release <= nextSnapshot_) {
            // Every release due before the next tick, in heap order,
            // through one observeBatch call.
            waitScratch_.clear();
            const double cap = std::min({horizon, nextRefit_, nextSnapshot_});
            while (!pending_.empty() && pending_.front().time <= cap) {
                waitScratch_.push_back(pending_.front().wait);
                std::pop_heap(pending_.begin(), pending_.end(),
                              std::greater<PendingRelease>{});
                pending_.pop_back();
            }
            predictor_.observeBatch(waitScratch_.data(),
                                    waitScratch_.size());
            dirty_ = true;
        } else if (nextRefit_ <= nextSnapshot_) {
            fireEpoch(now);
            skipIdleEpochs(std::min({t_release, nextSnapshot_, horizon}));
        } else {
            fireSnapshot(now);
        }
    }
}

bool
QueueCore::submit(double time)
{
    if (submits_ == 0)
        nextRefit_ = epochPerJob_ ? kInf : time;
    advanceTo(time);
    if (epochPerJob_ && dirty_)
        refit();
    if (!finalized_ && submits_ >= training_) {
        // Re-arm with the post-training state so the first scored job
        // sees a trained model even under epoch-based refits.
        predictor_.finalizeTraining();
        refit();
        finalized_ = true;
    }
    return submits_++ >= training_;
}

void
QueueCore::beginRelease(double time)
{
    advanceTo(std::nextafter(time, -kInf));
}

void
QueueCore::observe(double wait)
{
    const size_t trims = predictorTrimCount(predictor_);
    predictor_.observe(wait);
    // A trim refits on the spot, over the history that includes wait.
    dirty_ = predictorTrimCount(predictor_) == trims;
    moved_ = moved_ || !dirty_;
}

bool
QueueCore::scoreRelease(double bound, double wait)
{
    // The scoreBatch rule: an infinite bound covers and is tallied.
    const bool infinite = !(bound < kInf);
    const bool hit = infinite || bound >= wait;
    ++evaluated_;
    correct_ += hit;
    infinite_ += infinite;
    return hit;
}

void
QueueCore::scoreRun(const double *waits, size_t count)
{
    const auto score =
        predictor_.scoreBatch(waits, count, ratioScratch_.data());
    evaluated_ += count;
    correct_ += score.correct;
    infinite_ += score.infinite;
    if (score.infinite == 0)
        ratios_.append(ratioScratch_.data(), count);
    QDEL_OBS({
        obs::ReplayMetrics &metrics = obs::replayMetrics();
        metrics.predictions.inc(count);
        if (score.infinite > 0) {
            metrics.infinitePredictions.inc(score.infinite);
        } else {
            metrics.boundHits.inc(score.correct);
            metrics.boundMisses.inc(count - score.correct);
        }
        // The bound is frozen across the run: one lookup serves every
        // job's ring events.
        const auto bound = predictor_.upperBound();
        for (size_t k = 0; k < count; ++k) {
            obs::events().emit(obs::EventType::PredictionIssued,
                               bound.value, waits[k]);
            if (bound.finite()) {
                obs::events().emit(bound.value >= waits[k]
                                       ? obs::EventType::BoundHit
                                       : obs::EventType::BoundMiss,
                                   bound.value, waits[k]);
            }
        }
    });
}

void
QueueCore::processRows(const double *submits, const double *waits,
                       size_t n)
{
    if (ratioScratch_.size() < n)
        ratioScratch_.resize(n);
    size_t r = 0;
    while (r < n) {
        const uint64_t i = submits_;
        const bool scored = submit(submits[r]);
        // Extend a run of jobs that see no event (release or epoch)
        // between their submits: the bound is frozen over it, so it
        // scores with one scoreBatch call. Events fire at times <= a
        // submit, hence strict <; each job's own release joins the
        // horizon because it can fire before a short-wait successor.
        // The run stops at the training boundary.
        size_t s = r + 1;
        if (!epochPerJob_) {
            double horizon =
                std::min({pending_.empty() ? kInf : pending_.front().time,
                          nextRefit_, submits[r] + waits[r]});
            const size_t limit =
                finalized_ ? n : std::min<size_t>(n, r + (training_ - i));
            while (s < limit && submits[s] < horizon) {
                horizon = std::min(horizon, submits[s] + waits[s]);
                ++s;
            }
        }
        submits_ = i + (s - r);
        if (scored)
            scoreRun(waits + r, s - r);
        for (size_t k = r; k < s; ++k) {
            pending_.push_back({submits[k] + waits[k], waits[k]});
            std::push_heap(pending_.begin(), pending_.end(),
                           std::greater<PendingRelease>{});
        }
        QDEL_OBS(obs::replayMetrics().jobsProcessed.inc(s - r));
        r = s;
    }
}

Expected<double>
QueueCore::medianRatio()
{
    return ratios_.size() == 0 ? Expected<double>(0.0) : ratios_.median();
}

Expected<Unit>
QueueCore::saveState(persist::StateWriter &writer) const
{
    if (ratios_.spilled()) {
        return ParseError{"", 0, "ratios",
                          "spilled accuracy ratios cannot be checkpointed"};
    }
    // The heap (in its exact layout, so a restored core pops in the
    // same order) and the series go out as flat (time, value) pairs.
    std::vector<double> pending, series;
    for (const PendingRelease &release : pending_)
        pending.insert(pending.end(), {release.time, release.wait});
    for (const SeriesPoint &point : series_)
        series.insert(series.end(), {point.time, point.value});
    writer.u64(submits_);
    writer.u8(finalized_ ? 1 : 0);
    writer.u8(dirty_ ? 1 : 0);
    writer.f64(nextRefit_);
    writer.f64(nextSnapshot_);
    writer.u64(evaluated_);
    writer.u64(correct_);
    writer.u64(infinite_);
    writer.doubles(ratios_.resident());
    writer.doubles(pending);
    writer.doubles(series);
    writer.u64(snapshots_.size());
    for (const QuantileSnapshot &snap : snapshots_) {
        writer.f64(snap.time);
        writer.doubles(snap.values);
    }
    return predictor_.saveState(writer);
}

Expected<Unit>
QueueCore::loadState(persist::StateReader &reader, bool *predictor_loaded,
                     uint64_t max_submits)
{
    const uint64_t submits = reader.u64();
    const bool finalized = reader.u8() != 0;
    const bool dirty = reader.u8() != 0;
    const double next_refit = reader.f64();
    const double next_snapshot = reader.f64();
    const uint64_t evaluated = reader.u64();
    const uint64_t correct = reader.u64();
    const uint64_t infinite = reader.u64();
    std::vector<double> ratios = reader.doubles();
    const std::vector<double> pending = reader.doubles();
    const std::vector<double> series = reader.doubles();
    const uint64_t n_snapshots = reader.u64();
    if (submits > max_submits) {
        reader.fail(ParseError{"", 0, "nextJob",
                               "state is ahead of its input (" +
                                   std::to_string(submits) + " > " +
                                   std::to_string(max_submits) + " jobs)"});
    }
    if (pending.size() % 2 != 0 || series.size() % 2 != 0)
        reader.fail(ParseError{"", 0, "pending/series", "odd pair array"});
    std::vector<QuantileSnapshot> snapshots;
    for (uint64_t i = 0; i < n_snapshots && reader.ok(); ++i) {
        const double time = reader.f64();
        snapshots.push_back({time, reader.doubles()});
    }
    if (!reader.ok())
        return reader.error();

    if (predictor_loaded != nullptr)
        *predictor_loaded = true;  // loadState commits on its own success
    if (auto ok = predictor_.loadState(reader); !ok.ok()) {
        if (predictor_loaded != nullptr)
            *predictor_loaded = false;
        return ok.error();
    }

    submits_ = submits;
    finalized_ = finalized;
    dirty_ = dirty;
    moved_ = false;
    nextRefit_ = next_refit;
    nextSnapshot_ = next_snapshot;
    evaluated_ = evaluated;
    correct_ = correct;
    infinite_ = infinite;
    ratios_.reset(std::move(ratios));
    pending_.clear();
    series_.clear();
    for (size_t i = 0; i < pending.size(); i += 2)
        pending_.push_back({pending[i], pending[i + 1]});
    for (size_t i = 0; i < series.size(); i += 2)
        series_.push_back({series[i], series[i + 1]});
    snapshots_ = std::move(snapshots);
    return Unit{};
}

} // namespace sim
} // namespace qdel
