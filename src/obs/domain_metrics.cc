/**
 * @file
 * Registration of the qdel metric catalog. Bucket layouts:
 *
 *  - latency histograms span 1us .. ~16s in powers of four — wide
 *    enough for both an in-memory refit (microseconds) and an fsync
 *    on spinning rust (tens of milliseconds), at 13 buckets;
 *  - checkpoint payload sizes span 256 B .. ~1 GiB in powers of four;
 *  - group-commit sizes span 1 .. 512 records in powers of two.
 */

#include "obs/domain_metrics.hh"

namespace qdel {
namespace obs {

namespace {

std::vector<double>
latencyBounds()
{
    return exponentialBounds(1e-6, 4.0, 13);
}

std::vector<double>
byteBounds()
{
    return exponentialBounds(256.0, 4.0, 12);
}

} // namespace

CoreMetrics &
coreMetrics()
{
    static CoreMetrics metrics{
        registry().counter("qdel_predictor_observations_total",
                           "Wait-time observations fed to predictors"),
        registry().counter("qdel_predictor_refits_total",
                           "Predictor refit() calls"),
        registry().counter("qdel_rare_event_runs_started_total",
                           "Exceedance runs started (first miss after"
                           " a hit)"),
        registry().counter("qdel_rare_event_fired_total",
                           "Rare-event detector firings (run reached"
                           " threshold)"),
        registry().gauge("qdel_rare_event_run_length",
                         "Current consecutive-exceedance run length"),
        registry().gauge("qdel_predictor_history_size",
                         "Observations currently held in history"),
        registry().histogram("qdel_predictor_refit_seconds",
                             "Latency of predictor refit()",
                             latencyBounds()),
    };
    return metrics;
}

ReplayMetrics &
replayMetrics()
{
    static ReplayMetrics metrics{
        registry().counter("qdel_replay_jobs_processed_total",
                           "Jobs stepped through by replay"),
        registry().counter("qdel_replay_predictions_total",
                           "Bound predictions issued for scored jobs"),
        registry().counter("qdel_replay_bound_hits_total",
                           "Scored jobs whose wait was within the"
                           " predicted bound"),
        registry().counter("qdel_replay_bound_misses_total",
                           "Scored jobs whose wait exceeded the"
                           " predicted bound"),
        registry().counter("qdel_replay_infinite_predictions_total",
                           "Predictions with no finite bound"
                           " (insufficient history)"),
        registry().histogram("qdel_replay_eval_task_seconds",
                             "Latency of one per-queue evaluation task",
                             latencyBounds()),
        registry().counter("qdel_replay_batches_total",
                           "Column batches fed to offline replay cores"),
        registry().gauge("qdel_replay_resident_bytes",
                         "Process resident set size sampled by"
                         " streaming replay"),
        registry().gauge("qdel_replay_stream_shard_lag",
                         "Shards mapped but not yet fully evaluated by"
                         " streaming replay"),
    };
    return metrics;
}

PoolMetrics &
poolMetrics()
{
    static PoolMetrics metrics{
        registry().counter("qdel_pool_tasks_submitted_total",
                           "Tasks submitted to the thread pool"),
        registry().counter("qdel_pool_tasks_completed_total",
                           "Tasks completed by pool workers"),
        registry().gauge("qdel_pool_queue_depth",
                         "Tasks waiting in the pool queue"),
        registry().histogram("qdel_pool_task_seconds",
                             "Wall time of one pool task",
                             latencyBounds()),
    };
    return metrics;
}

PersistMetrics &
persistMetrics()
{
    static PersistMetrics metrics{
        registry().counter("qdel_persist_checkpoints_written_total",
                           "Snapshots published to disk"),
        registry().counter("qdel_persist_wal_appends_total",
                           "Records appended to the write-ahead log"),
        registry().counter("qdel_persist_recoveries_total",
                           "Recovery-ladder runs at startup"),
        registry().gauge("qdel_persist_recovery_rung",
                         "Last recovery rung taken (1=latest snapshot,"
                         " 2=previous snapshot, 3=wal-only,"
                         " 4=cold-start)"),
        registry().gauge("qdel_persist_wal_segment_bytes",
                         "Bytes written to the current WAL segment"),
        registry().histogram("qdel_persist_fsync_seconds",
                             "Latency of fsync()", latencyBounds()),
        registry().histogram("qdel_persist_checkpoint_seconds",
                             "Latency of a full checkpoint write",
                             latencyBounds()),
        registry().histogram("qdel_persist_checkpoint_bytes",
                             "Checkpoint payload sizes", byteBounds()),
        registry().histogram("qdel_persist_group_commit_events",
                             "WAL records covered by one group-commit"
                             " fsync",
                             exponentialBounds(1.0, 2.0, 10)),
    };
    return metrics;
}

IngestMetrics &
ingestMetrics()
{
    static IngestMetrics metrics{
        registry().counter("qdel_ingest_lines_total",
                           "Trace lines scanned by the parsers"),
        registry().counter("qdel_ingest_records_total",
                           "Job records successfully parsed"),
        registry().counter("qdel_ingest_malformed_total",
                           "Lines skipped as malformed (lenient mode)"),
        registry().counter("qdel_ingest_filtered_total",
                           "Records dropped by ingest filters"),
        registry().counter("qdel_ingest_bytes_total",
                           "Trace bytes consumed by text parsing"),
        registry().counter("qdel_trace_cache_hits_total",
                           ".qtc cache hits"),
        registry().counter("qdel_trace_cache_stale_total",
                           ".qtc caches rejected as stale"),
        registry().counter("qdel_trace_cache_corrupt_total",
                           ".qtc caches rejected as corrupt"),
        registry().counter("qdel_trace_cache_misses_total",
                           ".qtc cache misses (no cache file)"),
        registry().histogram("qdel_ingest_parse_seconds",
                             "Latency of one trace load",
                             latencyBounds()),
    };
    return metrics;
}

ServeMetrics &
serveMetrics()
{
    static ServeMetrics metrics{
        registry().counter("qdel_serve_requests_total",
                           "Requests handled by the bound service"
                           " (all opcodes + HTTP)"),
        registry().counter("qdel_serve_queries_total",
                           "Bound queries answered"),
        registry().counter("qdel_serve_events_applied_total",
                           "Job events applied to the registry"),
        registry().counter("qdel_serve_events_rejected_total",
                           "Job events rejected by validation"),
        registry().counter("qdel_serve_bad_frames_total",
                           "Malformed request frames dropped"),
        registry().counter("qdel_serve_snapshot_publishes_total",
                           "Bound snapshots published to the read path"),
        registry().counter("qdel_serve_http_requests_total",
                           "Requests that arrived over the HTTP"
                           " fallback"),
        registry().counter("qdel_serve_shed_total",
                           "Requests refused by admission control"
                           " (connection slots or pending bound"
                           " exhausted)"),
        registry().counter("qdel_serve_reaped_connections_total",
                           "Connections closed for exceeding an io or"
                           " idle deadline"),
        registry().counter("qdel_serve_dedup_hits_total",
                           "Retried events answered from the per-client"
                           " seq fence without re-applying"),
        registry().counter("qdel_serve_accept_errors_total",
                           "accept() failures absorbed by the backoff"
                           " loop"),
        registry().counter("qdel_serve_loop_wakeups_total",
                           "epoll_wait() returns across reactor loops"),
        registry().counter("qdel_serve_buffer_shrinks_total",
                           "Per-connection buffers released back to the"
                           " small default after an oversized request"),
        registry().counter("qdel_serve_slow_requests_total",
                           "Requests whose handling exceeded the"
                           " --slow-request-us threshold"),
        registry().gauge("qdel_serve_entries",
                         "Live (machine, queue, proc-bucket) predictor"
                         " entries"),
        registry().gauge("qdel_serve_pending_jobs",
                         "Submitted jobs not yet started"),
        registry().gauge("qdel_serve_connections",
                         "Open client connections"),
        registry().gauge("qdel_serve_reactor_loops",
                         "Reactor event-loop threads running"),
        registry().histogram("qdel_serve_request_seconds",
                             "Latency of one served request",
                             latencyBounds()),
        registry().histogram("qdel_serve_query_seconds",
                             "Latency of one bound query",
                             latencyBounds()),
        registry().histogram("qdel_serve_batch_frames",
                             "Complete frames serviced per reactor"
                             " drain batch",
                             exponentialBounds(1.0, 4.0, 8)),
    };
    return metrics;
}

CalibrationMetrics &
calibrationMetrics()
{
    static CalibrationMetrics metrics{
        registry().counter("qdel_calib_scored_total",
                           "Started jobs scored against the bound"
                           " captured at their submit"),
        registry().counter("qdel_calib_hits_total",
                           "Scored waits covered by the captured"
                           " bound (infinite bounds count as hits)"),
        registry().counter("qdel_calib_misses_total",
                           "Scored waits that exceeded the captured"
                           " finite bound"),
        registry().counter("qdel_calib_infinite_total",
                           "Scored jobs whose captured bound was"
                           " infinite (insufficient history)"),
        registry().counter("qdel_calib_unscored_total",
                           "Started jobs with no scoreable bound"
                           " (entry still training at submit)"),
        registry().gauge("qdel_calib_entries",
                         "Predictor entries with at least one scored"
                         " outcome"),
        registry().gauge("qdel_calib_failing_entries",
                         "Entries whose rolling coverage is"
                         " significantly below the requested"
                         " confidence (one-sided binomial test)"),
        registry().gauge("qdel_calib_worst_coverage",
                         "Smallest rolling-window empirical coverage"
                         " across entries (-1 until something is"
                         " scored)"),
        registry().gauge("qdel_calib_max_undercoverage",
                         "Largest (confidence - rolling coverage)"
                         " across entries; positive means some entry"
                         " under-covers"),
    };
    return metrics;
}

} // namespace obs
} // namespace qdel
