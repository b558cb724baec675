/**
 * @file
 * Out-of-core access to .qtc column data: a shard writer that streams
 * an arbitrarily large trace to disk in bounded memory, and a reader
 * that iterates typed column batches straight out of the mapped
 * shards without ever materializing a full Trace.
 *
 * A *shard set* is a directory of standalone .qtc files (each readable
 * by parseQtcView / qdel_synth --verify on its own) plus a small text
 * manifest, "<base>.qtcs":
 *
 *   QTCS1
 *   site=<site>
 *   machine=<machine>
 *   queues=<k>
 *   <queue name>            x k   (one per line; id = line order)
 *   shards=<m>
 *   <file> <jobs> <c_0> ... <c_{k-1}>   x m
 *   total=<n>
 *
 * Two invariants make zero-copy batch iteration sound:
 *
 *  1. *Global queue ids.* The writer assigns queue ids in global
 *     first-appearance order and writes each shard's queue table as
 *     the full table known at flush time — so every shard's table is a
 *     prefix of the manifest's and the raw queueId column needs no
 *     per-shard remapping. The reader verifies this on every shard
 *     load and refuses mismatched shard sets as corrupt.
 *
 *  2. *Aligned columns.* The v2 .qtc layout keeps every column start
 *     naturally aligned (trace_cache.hh), so a ColumnBatch is six
 *     typed pointers into the mapped shard — no copies.
 *
 * The per-shard job counts per queue (<c_i>) let a replay configure
 * its per-queue training split before streaming a single batch, which
 * is what keeps streaming output byte-identical to the in-memory path.
 *
 * Resident memory is bounded by one mapped shard at a time: advancing
 * past a shard boundary unmaps the previous shard before mapping the
 * next, so peak RSS for the trace data is O(shard), not O(trace).
 */

#ifndef QDEL_TRACE_QTC_STREAM_HH
#define QDEL_TRACE_QTC_STREAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.hh"
#include "trace/trace_cache.hh"
#include "util/expected.hh"
#include "util/mapped_file.hh"

namespace qdel {
namespace trace {

/** Manifest filename extension (shard files keep plain ".qtc"). */
constexpr const char *kQtcManifestExtension = ".qtcs";

/** Configuration for ShardedTraceWriter. */
struct ShardWriterOptions
{
    std::string directory;         //!< Created if missing.
    std::string baseName = "trace";
    size_t shardSize = 2'000'000;  //!< Jobs per shard (~76 MiB).
    std::string site;
    std::string machine;
};

/**
 * Streams jobs into a sharded .qtc set with O(shardSize) memory: jobs
 * accumulate into SoA column buffers and every shardSize-th add()
 * flushes a standalone .qtc shard to disk. finish() flushes the tail
 * shard and writes the manifest. Single-use; add() after finish() is
 * a programmer error.
 */
class ShardedTraceWriter
{
  public:
    explicit ShardedTraceWriter(ShardWriterOptions options);

    /** Append one job; may flush a full shard (I/O errors => err()). */
    void add(const JobRecord &job);

    /** Column-level add() that skips JobRecord assembly. */
    void add(double submit_time, double wait_seconds, double run_seconds,
             long long status, int procs, const std::string &queue);

    /** Flush the tail shard + manifest; the first error, if any. */
    Expected<Unit> finish();

    /** Sticky first I/O error (flushes happen inside add()). */
    const Expected<Unit> &err() const { return err_; }

    size_t totalJobs() const { return totalJobs_; }
    size_t shardCount() const { return shards_.size(); }

    /** "<directory>/<baseName>.qtcs"; written by finish(). */
    std::string manifestPath() const;

  private:
    struct ShardEntry
    {
        std::string file;  //!< Basename relative to the directory.
        uint64_t jobs = 0;
        std::vector<uint64_t> queueJobs;  //!< Per-queue counts.
    };

    void flushShard();
    uint32_t internQueue(const std::string &queue);

    ShardWriterOptions options_;
    Expected<Unit> err_ = Unit{};
    bool finished_ = false;
    size_t totalJobs_ = 0;

    TraceColumns shard_;  //!< The current shard's columns.
    std::vector<uint64_t> shardQueueJobs_;

    // Global queue table (ids are global; see file comment).
    std::vector<std::string> queueNames_;
    std::map<std::string, uint32_t> queueIds_;
    std::string lastQueue_;    //!< Memoized last lookup — the common
    uint32_t lastQueueId_ = 0; //!< case streams one queue at a time.

    std::vector<ShardEntry> shards_;
};

/** One zero-copy slice of columns handed out by StreamingTraceReader. */
struct ColumnBatch
{
    size_t begin = 0;  //!< Global job index of row 0.
    size_t size = 0;   //!< Rows in this batch (never 0 from next()).
    const double *submit = nullptr;
    const double *wait = nullptr;
    const double *run = nullptr;
    const int64_t *status = nullptr;
    const int32_t *procs = nullptr;
    const uint32_t *queueId = nullptr;  //!< Indexes queueNames().

    ColumnsView
    columns() const
    {
        return {size, submit, wait, run, status, procs, queueId};
    }
};

/** Configuration for StreamingTraceReader. */
struct StreamReadOptions
{
    size_t batchSize = 1u << 16;  //!< Max rows per next() batch.
    bool verifyCrc = true;        //!< Checksum each shard on load.
};

/**
 * Iterates ColumnBatches over a shard set (a ".qtcs" manifest) or a
 * single ".qtc" file, keeping at most one shard mapped at a time.
 * Batches arrive in global job order and never span a shard boundary.
 */
class StreamingTraceReader
{
  public:
    /** Open @p path (".qtcs" manifest or single ".qtc" image). */
    static Expected<StreamingTraceReader> open(
        const std::string &path, StreamReadOptions options = {});

    const std::string &site() const { return site_; }
    const std::string &machine() const { return machine_; }

    /** Global queue table; ColumnBatch::queueId indexes this. */
    const std::vector<std::string> &queueNames() const
    {
        return queueNames_;
    }

    /** Total jobs per queue across all shards, known before streaming. */
    const std::vector<uint64_t> &queueJobCounts() const
    {
        return queueJobCounts_;
    }

    size_t jobCount() const { return jobCount_; }
    size_t shardCount() const { return shards_.size(); }

    /** Index of the currently mapped shard (== shardCount() at end). */
    size_t currentShard() const { return shardIndex_; }

    /**
     * Advance to the next batch. @return true and fill @p batch, or
     * false at end of stream; shard-level damage is an error. The
     * pointers in @p batch are invalidated by the next call.
     */
    Expected<bool> next(ColumnBatch *batch);

    /** Rewind to the first batch (remaps shard 0 on demand). */
    void reset();

    /**
     * Read everything into an ordinary Trace — the bridge back to the
     * in-memory path (parity tests, small inputs). O(total) memory.
     */
    Expected<Trace> materialize();

  private:
    struct ShardRef
    {
        std::string path;  //!< Full path to the shard file.
        uint64_t jobs = 0;
    };

    Expected<Unit> loadShard(size_t index);
    void unloadShard();

    StreamReadOptions options_;
    std::string site_;
    std::string machine_;
    std::vector<std::string> queueNames_;
    std::vector<uint64_t> queueJobCounts_;
    size_t jobCount_ = 0;
    std::vector<ShardRef> shards_;

    MappedFile mapped_;
    QtcView view_;        //!< Valid only while loaded_.
    bool loaded_ = false;
    size_t shardIndex_ = 0;   //!< Shard that view_ describes (or next).
    size_t rowInShard_ = 0;   //!< Next row to hand out within view_.
    size_t globalRow_ = 0;    //!< Next global job index.
};

} // namespace trace
} // namespace qdel

#endif // QDEL_TRACE_QTC_STREAM_HH
