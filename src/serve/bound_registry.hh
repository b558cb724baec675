/**
 * @file
 * Sharded registry of per-(machine, queue, proc-bucket) predictors —
 * the in-memory core of the online bound service.
 *
 * Write path: events route to a shard by a CRC of their key; one
 * mutex per shard serializes every mutation in that shard, which is
 * also what makes the shard a WAL domain — the lock is taken across
 * "append to WAL, then apply" so the log order is the apply order.
 *
 * Read path: queries never take a lock. Each entry publishes an
 * immutable BoundSnapshot (a grid of quantile bounds captured with
 * Predictor::boundGrid() while the bound is frozen) through an
 * AtomicSharedPtr; the shard's key map itself is copy-on-write behind
 * another one, so a query is two pointer loads and a map lookup. Writers republish a snapshot at
 * most once per applied event, and only when the frozen bound moved —
 * a refit that followed new observations, a finalizeTraining, or a
 * change-point trim — so the scoreBatch frozen-bound invariant from the
 * replay carries over: between publishes, every answer the grid gives
 * is exactly what boundAt() would have returned at the last move.
 *
 * Refit policy: each entry runs the offline replay's Section 5.1 rules
 * through its own sim::QueueCore, on the events' virtual time. A Submit
 * at T fires the key's epochs at or before T (every epochSeconds from
 * its first submit), finalizes training at the trainJobs-th submit and
 * captures the bound the job will be scored against; a Start at T
 * fires the epochs strictly before T, then observes the wait. Fed the
 * event order of serve::eventsFromJobs, an entry's scored, hit and
 * infinite counts equal ReplaySimulator's evaluated, correct and
 * infinite counts on the same queue.
 *
 * Determinism: every mutation (entry creation, epoch refits, training
 * finalization at a fixed submit count, snapshot version bumps,
 * accept/reject decisions) is a pure function of the per-shard event
 * sequence, so WAL replay reconstructs a shard bit-identically.
 */

#ifndef QDEL_SERVE_BOUND_REGISTRY_HH
#define QDEL_SERVE_BOUND_REGISTRY_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "core/rare_event.hh"
#include "serve/wire.hh"
#include "sim/replay/queue_core.hh"
#include "util/expected.hh"

namespace qdel {

namespace persist {
class StateWriter;
class StateReader;
} // namespace persist

namespace serve {

/** Quantile grid every published snapshot carries. */
constexpr double kGridQuantiles[] = {0.25, 0.50, 0.60, 0.70, 0.75,
                                     0.80, 0.85, 0.90, 0.95, 0.96,
                                     0.97, 0.98, 0.99};
constexpr size_t kGridCount =
    sizeof(kGridQuantiles) / sizeof(kGridQuantiles[0]);

/** Nearest grid index to @p q (NaN and out-of-range snap inward). */
size_t gridIndexFor(double q);

/** Immutable published bounds for one entry; see file comment. */
struct BoundSnapshot
{
    double upper[kGridCount];  //!< Upper confidence bounds, seconds.
    double lower[kGridCount];  //!< Lower confidence bounds, seconds.
    uint64_t historySize = 0;
    uint64_t observations = 0;
    uint64_t version = 0;  //!< Publish counter, 1 = first publish.
};

/** What applying one event did (all outcomes are deterministic). */
struct ApplyOutcome
{
    bool applied = false;
    const char *rejectReason = nullptr;  //!< Set when !applied.
    /** The event was a retry of one already processed; its effect is
     *  present and it was neither logged nor re-applied. */
    bool deduped = false;
    /** Admission control refused the event before logging; the client
     *  should retry after retryAfterSeconds. */
    bool shed = false;
    uint32_t retryAfterSeconds = 0;
};

class BoundRegistry
{
  public:
    struct Options
    {
        size_t shards = 8;            //!< Power of two not required.
        std::string method = "bmbp";  //!< core::makePredictor() name.
        /** Primary quantile to bound; must be a kGridQuantiles point,
         *  since calibration scores that grid bound. */
        double quantile = 0.95;
        double confidence = 0.95;     //!< Confidence level C.
        /** Refit period in event virtual seconds, per key; 0 = refit
         *  at every submit (ReplayConfig::epochSeconds). */
        double epochSeconds = 300.0;
        /** Submits per key that only warm up the history, the live
         *  form of the offline training prefix; 0 scores from the
         *  first submit. */
        uint64_t trainJobs = 100;

        /** Validate ranges and the method name (CLI entry point). */
        Expected<Unit> validate() const;
    };

    /** Precondition: options.validate() passed (panics otherwise). */
    explicit BoundRegistry(const Options &options);

    /** Out-of-line so unique_ptr<Shard> deletes where Shard is complete. */
    ~BoundRegistry();

    const Options &options() const { return options_; }
    size_t shardCount() const { return shards_.size(); }

    /** Shard owning @p event's key. */
    size_t shardForEvent(const JobEvent &event) const;
    size_t shardForKey(const std::string &machine, const std::string &queue,
                       int bucket) const;

    /**
     * Take shard @p s's writer lock. Callers that persist hold this
     * across WAL append + applyLocked so log order == apply order.
     */
    std::unique_lock<std::mutex> lockShard(size_t s);

    /** Apply one event to shard @p s; caller holds the shard lock. */
    ApplyOutcome applyLocked(size_t s, const JobEvent &event);

    /**
     * @return true when @p event carries a clientId and its seq is at
     * or below the highest this shard has processed for that client —
     * the retry-dedup check. Caller holds the shard lock. Pure: does
     * not mutate the fence (applyLocked advances it).
     */
    bool isDuplicateLocked(size_t s, const JobEvent &event) const;

    /** Jobs submitted but not yet started in shard @p s; caller holds
     *  the shard lock. The admission-control pressure signal. */
    uint64_t pendingCountLocked(size_t s) const;

    /** Convenience for non-durable callers: lock, apply, unlock. */
    ApplyOutcome apply(const JobEvent &event);

    /** Lock-free bound lookup; known=false for an unseen key. */
    BoundAnswer query(const BoundQuery &query) const;

    /**
     * Reusable scratch for queryBatch(). The key string and the
     * per-shard key-map pins inside are reset (capacity retained, maps
     * released) between batches, so a steady-state batch allocates
     * nothing and performs at most one atomic key-map load per shard
     * touched. One scratch per reactor loop; not thread-safe.
     */
    class QueryScratch
    {
        friend class BoundRegistry;
        std::string key_;
        /** Type-erased shared_ptr<const KeyMap> pins (KeyMap is
         *  private); index = shard, null = not yet loaded. */
        std::vector<std::shared_ptr<const void>> maps_;
    };

    /**
     * Answer @p count queries through the same lock-free snapshot path
     * as query(), amortizing key construction and key-map acquire
     * loads across the batch — the reactor's pipelined hot path.
     * Results land in @p answers[0..count); identical to calling
     * query() per element.
     */
    void queryBatch(const BoundQuery *queries, size_t count,
                    BoundAnswer *answers, QueryScratch &scratch) const;

    /** Events processed (applied + rejected) by shard @p s. */
    uint64_t processedCount(size_t s) const;

    /** Per-shard processed counts + live entry total. */
    ServeStats stats() const;

    /** One row per entry, key-sorted, read from published snapshots. */
    struct EntryView
    {
        std::string machine;
        std::string queue;
        int bucket = 0;
        BoundSnapshot snapshot;
    };
    std::vector<EntryView> enumerate() const;

    /**
     * One entry's calibration state: the live analogue of an offline
     * correct-fraction table row. Lifetime counters never forget; the
     * window fields cover only the most recent outcomes, so they are
     * what the failing verdict is judged on.
     */
    struct CalibrationRow
    {
        std::string machine;
        std::string queue;
        int bucket = 0;
        uint64_t observations = 0;  //!< Waits ever observed.
        bool finalized = false;     //!< Past training, bounds scoreable.
        uint64_t scored = 0;        //!< Waits scored against a bound.
        uint64_t hits = 0;          //!< Covered (infinite counts as hit).
        uint64_t infinite = 0;      //!< Scored against an infinite bound.
        uint64_t windowCount = 0;   //!< Outcomes in the rolling window.
        uint64_t windowHits = 0;
        double lifetimeCoverage = -1.0;  //!< hits/scored; -1 when none.
        double windowCoverage = -1.0;
        double drift = 0.0;   //!< windowCoverage - confidence.
        double pValue = 1.0;  //!< P[Bin(windowCount, C) <= windowHits].
        bool failing = false; //!< Binomial test rejects coverage >= C.
    };

    /** calibrationReport() output: key-sorted rows + aggregates. */
    struct CalibrationReport
    {
        double confidence = 0.0;  //!< Requested C (options().confidence).
        double quantile = 0.0;    //!< Grid quantile bounds are scored at.
        uint64_t windowCapacity = 0;
        std::vector<CalibrationRow> rows;
        uint64_t scoredEntries = 0;   //!< Rows with windowCount > 0.
        uint64_t failingEntries = 0;
        double worstCoverage = -1.0;  //!< Min window coverage; -1 if none.
        /** Max (confidence - window coverage) over scored rows; positive
         *  means at least one entry under-covers. 0 when none scored. */
        double maxUndercoverage = 0.0;
    };

    /**
     * Snapshot every entry's calibration state (takes each shard lock
     * briefly — cold path) and refresh the qdel_calib_* gauges from
     * the aggregates. Drives /debug/calibration and /metrics.
     */
    CalibrationReport calibrationReport() const;

    /** Per-shard introspection counters for /debug/shards. */
    struct ShardInfo
    {
        uint64_t entries = 0;   //!< Live predictor keys.
        uint64_t pending = 0;   //!< Submitted-not-started jobs.
        uint64_t applied = 0;
        uint64_t rejected = 0;
        uint64_t clients = 0;   //!< Client retry fences held.
    };

    /** Counters for shard @p s (takes its lock briefly). */
    ShardInfo shardInfo(size_t s) const;

    /**
     * Serialize shard @p s's complete state (counters, pending jobs,
     * predictor states, publish versions) in key order; caller holds
     * the shard lock. loadShard() restores bit-identically and
     * republishes every entry's snapshot without bumping versions.
     */
    Expected<Unit> saveShard(size_t s, persist::StateWriter &writer) const;
    Expected<Unit> loadShard(size_t s, persist::StateReader &reader);

    /**
     * Hex CRC-32 over the canonical serialization of every shard —
     * equal digests mean bit-identical registry state. Takes every
     * shard lock (briefly); not for the hot path.
     */
    std::string digest() const;

  private:
    struct Entry;
    /** Copy-on-write key map: ordered so serialization is canonical. */
    using KeyMap = std::map<std::string, std::shared_ptr<Entry>>;

    struct Shard;

    std::shared_ptr<Entry> findEntry(size_t s, const std::string &key) const;
    std::shared_ptr<Entry> makeEntry(const JobEvent &event) const;
    void insertLocked(size_t s, const std::string &key,
                      std::shared_ptr<Entry> entry);
    std::unique_ptr<core::Predictor> makePredictor() const;
    void releaseLocked(Entry &entry, double time, double wait);
    /** Why @p time cannot drive an entry's epoch clock, or nullptr. */
    const char *eventTimeProblem(double time) const;
    void scoreLocked(Entry &entry, bool scoreable, double bound,
                     double wait, uint64_t traceId);
    std::shared_ptr<BoundSnapshot> captureGrid(const Entry &entry) const;
    void publish(Entry &entry, std::shared_ptr<BoundSnapshot> snapshot);

    Options options_;
    size_t primaryGridIndex_ = 0;  //!< gridIndexFor(options_.quantile).
    core::RareEventTable rareTable_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace serve
} // namespace qdel

#endif // QDEL_SERVE_BOUND_REGISTRY_HH
