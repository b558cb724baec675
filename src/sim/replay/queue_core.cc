/**
 * @file
 * Implementation of the single Section 5.1 replay core.
 */

#include "sim/replay/queue_core.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/calibration.hh"
#include "obs/domain_metrics.hh"
#include "obs/obs.hh"
#include "persist/state_codec.hh"
#include "sim/replay/evaluation.hh"
#include "stats/special_functions.hh"

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

size_t
QueueCore::Window::count() const
{
    return static_cast<size_t>(
        std::min<uint64_t>(recorded, kWindowCapacity));
}

void
QueueCore::Window::record(bool hit)
{
    uint8_t &slot = slots[recorded % kWindowCapacity];
    if (recorded >= kWindowCapacity)
        hits -= slot;
    slot = hit ? 1 : 0;
    hits += slot;
    ++recorded;
}

std::string
QueueCore::Window::oldestFirst() const
{
    std::string out;
    for (uint64_t i = recorded - count(); i < recorded; ++i)
        out.push_back(static_cast<char>(slots[i % kWindowCapacity]));
    return out;
}

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
QueueCore::siftUp(ptrdiff_t hole, PendingRelease value, Outcome outcome)
{
    // libstdc++'s __push_heap with std::greater: move the hole up
    // while its parent orders after the value.
    ptrdiff_t parent = (hole - 1) / 2;
    while (hole > 0 && pending_[parent] > value) {
        pending_[hole] = pending_[parent];
        pendingOutcomes_[hole] = pendingOutcomes_[parent];
        hole = parent;
        parent = (hole - 1) / 2;
    }
    pending_[hole] = value;
    pendingOutcomes_[hole] = outcome;
}

void
QueueCore::pushPending(PendingRelease release, Outcome outcome)
{
    pending_.push_back(release);
    pendingOutcomes_.push_back(outcome);
    siftUp(static_cast<ptrdiff_t>(pending_.size()) - 1, release, outcome);
}

void
QueueCore::popPending()
{
    // libstdc++'s __pop_heap + __adjust_heap with std::greater: the
    // last element is lifted out, the front takes its slot, the hole
    // left at the top sinks along the earlier child to a leaf, and the
    // lifted element sifts up from there.
    const auto len = static_cast<ptrdiff_t>(pending_.size()) - 1;
    if (len > 0) {
        const PendingRelease value = pending_[len];
        const Outcome outcome = pendingOutcomes_[len];
        pending_[len] = pending_[0];
        pendingOutcomes_[len] = pendingOutcomes_[0];
        ptrdiff_t hole = 0;
        ptrdiff_t child = 0;
        while (child < (len - 1) / 2) {
            child = 2 * (child + 1);
            if (pending_[child] > pending_[child - 1])
                --child;
            pending_[hole] = pending_[child];
            pendingOutcomes_[hole] = pendingOutcomes_[child];
            hole = child;
        }
        if ((len & 1) == 0 && child == (len - 2) / 2) {
            child = 2 * (child + 1);
            pending_[hole] = pending_[child - 1];
            pendingOutcomes_[hole] = pendingOutcomes_[child - 1];
            hole = child - 1;
        }
        siftUp(hole, value, outcome);
    }
    pending_.pop_back();
    pendingOutcomes_.pop_back();
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

bool
QueueCore::skipIdleEpochs(double limit)
{
    // An epoch over an unchanged history refits nothing, so a run of
    // them only moves the clock: jump it in one step, short by one
    // epoch of rounding margin that the loop covers, so a long quiet
    // gap costs O(1) rather than one iteration per epoch. Ticks the
    // series probe records are not idle.
    if (dirty_)
        return true;
    if (probe_ != nullptr && probe_->captureSeries &&
        nextRefit_ < probe_->seriesEnd)
        limit = std::min(limit, probe_->seriesBegin);
    // No release, snapshot or horizon ahead: every later epoch is idle,
    // and no jump reaches an infinite limit.
    if (limit == kInf)
        return false;
    const double epochs =
        std::floor((limit - nextRefit_) / epochSeconds_) - 1.0;
    if (epochs >= 1.0 && std::isfinite(epochs))
        nextRefit_ += epochs * epochSeconds_;
    return true;
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
            // Every release due before the next tick, in (time,
            // submit) order, through one observeBatch call.
            waitScratch_.clear();
            const double cap = std::min({horizon, nextRefit_, nextSnapshot_});
            while (!pending_.empty() && pending_.front().time <= cap) {
                const PendingRelease &next = pending_.front();
                waitScratch_.push_back(next.time - next.submit);
                if (pendingOutcomes_.front() != Outcome::Unscored)
                    window_.record(pendingOutcomes_.front() == Outcome::Hit);
                popPending();
            }
            predictor_.observeBatch(waitScratch_.data(),
                                    waitScratch_.size());
            dirty_ = true;
        } else if (nextRefit_ <= nextSnapshot_) {
            fireEpoch(now);
            if (!skipIdleEpochs(
                    std::min({t_release, nextSnapshot_, horizon})))
                break;
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
    window_.record(hit);
    return hit;
}

double
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
        for (size_t k = 0; k < count; ++k) {
            obs::events().emit(obs::EventType::PredictionIssued,
                               score.bound, waits[k]);
            if (score.bound < kInf) {
                obs::events().emit(score.bound >= waits[k]
                                       ? obs::EventType::BoundHit
                                       : obs::EventType::BoundMiss,
                                   score.bound, waits[k]);
            }
        }
    });
    return score.bound;
}

void
QueueCore::processRows(const double *submits, const double *trace_waits,
                       size_t n)
{
    if (ratioScratch_.size() < n) {
        ratioScratch_.resize(n);
        rowWaits_.resize(n);
    }
    // Score and observe the wait a live service recovers from the
    // Start event, start - submit, not the trace's field: the two
    // differ in the last bit when times are not whole seconds.
    const double *waits = rowWaits_.data();
    for (size_t k = 0; k < n; ++k)
        rowWaits_[k] = (submits[k] + trace_waits[k]) - submits[k];
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
                          nextRefit_, submits[r] + trace_waits[r]});
            const size_t limit =
                finalized_ ? n : std::min<size_t>(n, r + (training_ - i));
            while (s < limit && submits[s] < horizon) {
                horizon = std::min(horizon, submits[s] + trace_waits[s]);
                ++s;
            }
        }
        submits_ = i + (s - r);
        const double bound = scored ? scoreRun(waits + r, s - r) : kInf;
        for (size_t k = r; k < s; ++k) {
            // Judged now by the scoreBatch rule, recorded at release.
            const Outcome outcome =
                !scored ? Outcome::Unscored
                : !(bound < kInf) || bound >= waits[k] ? Outcome::Hit
                                                       : Outcome::Miss;
            pushPending({submits[k] + trace_waits[k], submits[k]},
                        outcome);
        }
        QDEL_OBS(obs::replayMetrics().jobsProcessed.inc(s - r));
        r = s;
    }
}

Expected<ReplayResult>
QueueCore::result()
{
    ReplayResult out;
    out.totalJobs = submits_;
    out.trainingJobs = training_;
    out.evaluatedJobs = evaluated_;
    out.correct = correct_;
    out.infinitePredictions = infinite_;
    if (evaluated_ > 0) {
        out.correctFraction = static_cast<double>(correct_) /
                              static_cast<double>(evaluated_);
    }
    // The window as if every pending job released now, in the order
    // the heap would pop them.
    // (Jobs with equal keys carry equal outcomes unless one is a
    // training job, which the window skips, so ties may fall in any
    // order.)
    Window window = window_;
    std::vector<size_t> order(pending_.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return pending_[b] > pending_[a];
    });
    for (size_t k : order) {
        if (pendingOutcomes_[k] != Outcome::Unscored)
            window.record(pendingOutcomes_[k] == Outcome::Hit);
    }
    const obs::CalibrationVerdict verdict = obs::assessCalibration(
        window.hits, window.count(), predictor_.confidence());
    out.windowCount = window.count();
    out.windowHits = window.hits;
    out.windowCoverage = verdict.coverage;
    out.drift = verdict.drift;
    out.pValue = verdict.pValue;
    out.failing = verdict.failing;
    if (ratios_.size() > 0) {
        auto median = ratios_.median();
        if (!median.ok())
            return median.error();
        out.medianRatio = median.value();
    }
    out.series = series_;
    out.snapshots = snapshots_;
    return out;
}

Expected<Unit>
QueueCore::saveState(persist::StateWriter &writer) const
{
    if (ratios_.spilled()) {
        return ParseError{"", 0, "ratios",
                          "spilled accuracy ratios cannot be checkpointed"};
    }
    // The heap, as (start, submit) pairs plus one outcome byte per
    // release, and the series, as (time, value) pairs, go out flat.
    std::vector<double> pending, series;
    std::string outcomes;
    for (size_t k = 0; k < pending_.size(); ++k) {
        pending.insert(pending.end(), {pending_[k].time, pending_[k].submit});
        outcomes.push_back(static_cast<char>(pendingOutcomes_[k]));
    }
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
    writer.str(window_.oldestFirst());
    writer.doubles(ratios_.resident());
    writer.doubles(pending);
    writer.str(outcomes);
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
    const std::string window = reader.str();
    std::vector<double> ratios = reader.doubles();
    const std::vector<double> pending = reader.doubles();
    const std::string outcomes = reader.str();
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
    if (outcomes.size() * 2 != pending.size() ||
        std::any_of(outcomes.begin(), outcomes.end(), [](char c) {
            return static_cast<uint8_t>(c) >
                   static_cast<uint8_t>(Outcome::Unscored);
        })) {
        reader.fail(ParseError{"", 0, "outcomes",
                               "one outcome per pending release"});
    }
    if (window.size() > kWindowCapacity ||
        std::any_of(window.begin(), window.end(),
                    [](char c) { return c != 0 && c != 1; })) {
        reader.fail(ParseError{"", 0, "window",
                               "calibration window longer than its "
                               "capacity or not hit/miss bytes"});
    }
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
    window_ = Window{};
    for (char outcome : window)
        window_.record(outcome != 0);
    ratios_.reset(std::move(ratios));
    pending_.clear();
    pendingOutcomes_.clear();
    series_.clear();
    for (size_t i = 0; i < pending.size(); i += 2) {
        pending_.push_back({pending[i], pending[i + 1]});
        pendingOutcomes_.push_back(static_cast<Outcome>(outcomes[i / 2]));
    }
    for (size_t i = 0; i < series.size(); i += 2)
        series_.push_back({series[i], series[i + 1]});
    snapshots_ = std::move(snapshots);
    return Unit{};
}

} // namespace sim

namespace obs {

// Declared in obs/calibration.hh; defined here because qdel_obs links
// below qdel_stats, which owns the binomial CDF.
CalibrationVerdict
assessCalibration(std::size_t hits, std::size_t n, double confidence,
                  std::size_t minSamples, double alpha)
{
    CalibrationVerdict verdict;
    if (n == 0)
        return verdict;  // binomialCdf needs n >= 1; pValue stays 1.
    verdict.coverage = static_cast<double>(hits) / static_cast<double>(n);
    verdict.drift = verdict.coverage - confidence;
    verdict.pValue =
        stats::binomialCdf(static_cast<long long>(hits),
                           static_cast<long long>(n), confidence);
    verdict.failing = n >= minSamples && verdict.pValue < alpha;
    return verdict;
}

} // namespace obs
} // namespace qdel
