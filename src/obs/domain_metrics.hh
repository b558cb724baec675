/**
 * @file
 * The qdel metric catalog: one struct of metric references per
 * instrumented subsystem, each behind a lazily-initialized accessor.
 * Centralizing names, help strings, and bucket layouts here keeps the
 * exposition schema reviewable in one place and lets call sites write
 *
 *   QDEL_OBS(obs::coreMetrics().observations.inc());
 *
 * without touching the registry directly. Each accessor registers on
 * first use (one mutex acquisition per process) and then returns the
 * same struct of stable references forever.
 */

#ifndef QDEL_OBS_DOMAIN_METRICS_HH
#define QDEL_OBS_DOMAIN_METRICS_HH

#include "obs/metrics.hh"

namespace qdel {
namespace obs {

/** Predictor lifecycle (src/core/): observe/refit/rare events. */
struct CoreMetrics
{
    Counter &observations;    //!< qdel_predictor_observations_total
    Counter &refits;          //!< qdel_predictor_refits_total
    Counter &rareRunStarted;  //!< qdel_rare_event_runs_started_total
    Counter &rareEventFired;  //!< qdel_rare_event_fired_total
    Gauge &rareRunLength;     //!< qdel_rare_event_run_length
    Gauge &historySize;       //!< qdel_predictor_history_size
    Histogram &refitSeconds;  //!< qdel_predictor_refit_seconds
};

/** Replay scoring loop + parallel evaluation (src/sim/replay/). */
struct ReplayMetrics
{
    Counter &jobsProcessed;        //!< qdel_replay_jobs_processed_total
    Counter &predictions;          //!< qdel_replay_predictions_total
    Counter &boundHits;            //!< qdel_replay_bound_hits_total
    Counter &boundMisses;          //!< qdel_replay_bound_misses_total
    Counter &infinitePredictions;  //!< qdel_replay_infinite_predictions_total
    Histogram &evalTaskSeconds;    //!< qdel_replay_eval_task_seconds
    Counter &batches;              //!< qdel_replay_batches_total
    Gauge &residentBytes;          //!< qdel_replay_resident_bytes
    Gauge &streamShardLag;         //!< qdel_replay_stream_shard_lag
};

/** util::ThreadPool saturation. */
struct PoolMetrics
{
    Counter &tasksSubmitted;  //!< qdel_pool_tasks_submitted_total
    Counter &tasksCompleted;  //!< qdel_pool_tasks_completed_total
    Gauge &queueDepth;        //!< qdel_pool_queue_depth
    Histogram &taskSeconds;   //!< qdel_pool_task_seconds
};

/** Persistence stack (src/persist/): durability cost + recovery. */
struct PersistMetrics
{
    Counter &checkpointsWritten;  //!< qdel_persist_checkpoints_written_total
    Counter &walAppends;          //!< qdel_persist_wal_appends_total
    Counter &recoveries;          //!< qdel_persist_recoveries_total
    Gauge &recoveryRung;          //!< qdel_persist_recovery_rung
    Gauge &walSegmentBytes;       //!< qdel_persist_wal_segment_bytes
    Histogram &fsyncSeconds;      //!< qdel_persist_fsync_seconds
    Histogram &checkpointSeconds; //!< qdel_persist_checkpoint_seconds
    Histogram &checkpointBytes;   //!< qdel_persist_checkpoint_bytes
    Histogram &groupCommitEvents; //!< qdel_persist_group_commit_events
};

/** Trace ingestion (src/trace/): parse throughput + .qtc cache. */
struct IngestMetrics
{
    Counter &linesParsed;     //!< qdel_ingest_lines_total
    Counter &recordsParsed;   //!< qdel_ingest_records_total
    Counter &malformed;       //!< qdel_ingest_malformed_total
    Counter &filtered;        //!< qdel_ingest_filtered_total
    Counter &parseBytes;      //!< qdel_ingest_bytes_total
    Counter &cacheHits;       //!< qdel_trace_cache_hits_total
    Counter &cacheStale;      //!< qdel_trace_cache_stale_total
    Counter &cacheCorrupt;    //!< qdel_trace_cache_corrupt_total
    Counter &cacheMisses;     //!< qdel_trace_cache_misses_total
    Histogram &parseSeconds;  //!< qdel_ingest_parse_seconds
};

/** Online bound service (src/serve/): request mix + shard health. */
struct ServeMetrics
{
    Counter &requests;           //!< qdel_serve_requests_total
    Counter &queries;            //!< qdel_serve_queries_total
    Counter &eventsApplied;      //!< qdel_serve_events_applied_total
    Counter &eventsRejected;     //!< qdel_serve_events_rejected_total
    Counter &badFrames;          //!< qdel_serve_bad_frames_total
    Counter &snapshotPublishes;  //!< qdel_serve_snapshot_publishes_total
    Counter &httpRequests;       //!< qdel_serve_http_requests_total
    Counter &shedTotal;          //!< qdel_serve_shed_total
    Counter &reapedConnections;  //!< qdel_serve_reaped_connections_total
    Counter &dedupHits;          //!< qdel_serve_dedup_hits_total
    Counter &acceptErrors;       //!< qdel_serve_accept_errors_total
    Counter &loopWakeups;        //!< qdel_serve_loop_wakeups_total
    Counter &bufferShrinks;      //!< qdel_serve_buffer_shrinks_total
    Counter &slowRequests;       //!< qdel_serve_slow_requests_total
    Gauge &entries;              //!< qdel_serve_entries
    Gauge &pendingJobs;          //!< qdel_serve_pending_jobs
    Gauge &connections;          //!< qdel_serve_connections
    Gauge &reactorLoops;         //!< qdel_serve_reactor_loops
    Histogram &requestSeconds;   //!< qdel_serve_request_seconds
    Histogram &querySeconds;     //!< qdel_serve_query_seconds
    Histogram &batchFrames;      //!< qdel_serve_batch_frames
};

/**
 * Online bound-calibration telemetry (src/serve/ scoring path): the
 * live analogue of the offline correct-fraction tables. Counters move
 * when a started job's wait is scored against the bound captured at
 * its submit; gauges summarize the per-entry rolling windows and are
 * refreshed by BoundRegistry::calibrationReport() (on every /metrics
 * and /debug/calibration render).
 */
struct CalibrationMetrics
{
    Counter &scored;        //!< qdel_calib_scored_total
    Counter &hits;          //!< qdel_calib_hits_total
    Counter &misses;        //!< qdel_calib_misses_total
    Counter &infinite;      //!< qdel_calib_infinite_total
    Counter &unscored;      //!< qdel_calib_unscored_total
    Gauge &entries;         //!< qdel_calib_entries
    Gauge &failingEntries;  //!< qdel_calib_failing_entries
    Gauge &worstCoverage;   //!< qdel_calib_worst_coverage
    Gauge &maxUndercoverage; //!< qdel_calib_max_undercoverage
};

CoreMetrics &coreMetrics();
ReplayMetrics &replayMetrics();
PoolMetrics &poolMetrics();
PersistMetrics &persistMetrics();
IngestMetrics &ingestMetrics();
ServeMetrics &serveMetrics();
CalibrationMetrics &calibrationMetrics();

} // namespace obs
} // namespace qdel

#endif // QDEL_OBS_DOMAIN_METRICS_HH
