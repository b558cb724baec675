/**
 * @file
 * Wire types and binary codec for the online bound service.
 *
 * Every value the daemon exchanges, and its binary encoding, is
 * defined here so the server, the client tooling, the durability
 * layer, and the tests share one schema (the HTTP API renders the same
 * types as JSON in routes.hh; this file holds no JSON):
 *
 *  - JobEvent / BoundQuery / BoundAnswer value types, with field
 *    semantics lifted from SWF: times are seconds (SWF field 2 for
 *    submit, submit + field 3 for start), procs is the allocated
 *    processor count (SWF field 5), and a job's wait is derived as
 *    startTime - submitTime exactly like SWF field 3;
 *
 *  - the length-prefixed binary framing: every frame is
 *    u32 payloadLen (little-endian) | payload, where a request payload
 *    is u8 opcode | body and a response payload is u8 status | body.
 *    Bodies are encoded with persist::StateWriter/StateReader — the
 *    same bit-exact codec the snapshots use — so a decoded double is
 *    the double that was sent, NaN payloads and all;
 *
 *  - the same event body encoding doubles as the WAL record payload
 *    for durability (persist/wal.hh), so replaying a WAL is literally
 *    re-ingesting the original frames.
 *
 * Start/Done events repeat the routing key (machine/queue/procs): the
 * registry shards by key, and a self-routing event is what keeps every
 * shard an independent, independently-recoverable WAL domain.
 */

#ifndef QDEL_SERVE_WIRE_HH
#define QDEL_SERVE_WIRE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/job_record.hh"
#include "util/expected.hh"

namespace qdel {
namespace serve {

/** Largest frame payload either side will accept. */
constexpr uint32_t kMaxFrameBytes = 1u << 20;

/** Wire protocol version, echoed in ping responses. v2 added the
 *  per-client (clientId, seq) idempotency fields on JobEvent and the
 *  Status::Shed response frame; v3 added the optional trailing trace
 *  id on Event and Query bodies (absent = untraced, so every v2 frame
 *  is a valid v3 frame and response layouts are unchanged). */
constexpr uint32_t kWireVersion = 3;

/** Request opcodes (first payload byte of a request frame). */
enum class Opcode : uint8_t {
    Event = 1,       //!< body: encoded JobEvent
    Query = 2,       //!< body: encoded BoundQuery
    Ping = 3,        //!< body: empty; response body: u32 wire version
    Checkpoint = 4,  //!< body: empty; force a checkpoint of every shard
    Stats = 5,       //!< body: empty; response: per-shard ingest counts
};

/** First payload byte of a response frame. */
enum class Status : uint8_t {
    Ok = 0,
    Error = 1,  //!< body: str message
    /** Load shed under overload: body is str reason | u32 retry-after
     *  seconds. The request was NOT logged or applied; an idempotent
     *  client retries it after the advertised delay. */
    Shed = 2,
};

/** Job lifecycle transitions the service ingests. */
enum class EventKind : uint8_t {
    Submit = 1,  //!< job entered the queue at time
    Start = 2,   //!< job began executing at time (defines its wait)
    Done = 3,    //!< job finished (bookkeeping only)
};

/** One job lifecycle event; see the file comment for SWF semantics. */
struct JobEvent
{
    EventKind kind = EventKind::Submit;
    uint64_t jobId = 0;   //!< Client-assigned id, unique per key.
    double time = 0.0;    //!< Event time, seconds.
    std::string machine;  //!< Routing key: machine name.
    std::string queue;    //!< Routing key: queue name ("" = default).
    int procs = 1;        //!< Routing key: allocated processors.

    /**
     * At-most-once fencing for retries: a client that tags its events
     * with a stable clientId and a per-client monotonically increasing
     * seq may resend after any network failure — the shard remembers
     * the highest seq it has processed per client and answers a
     * duplicate with deduped=true instead of applying it twice. An
     * empty clientId opts out (every event applies).
     */
    std::string clientId;
    uint64_t seq = 0;

    /**
     * Optional request trace id (v3): when nonzero, the reactor tags
     * the QDEL_OBS spans this event generates so one request can be
     * followed reactor -> service -> registry in the drained event
     * stream. Deliberately NOT written by encodeEvent() — the WAL blob
     * layout (and therefore shard digests) is identical whether or not
     * a client traced the ingest; use encodeEventWire() to send one.
     */
    uint64_t traceId = 0;
};

/** "What wait bound do I face right now?" */
struct BoundQuery
{
    std::string machine;
    std::string queue;
    int procs = 1;
    double quantile = 0.95;  //!< Quantile to bound (snapped to grid).
    bool upper = true;       //!< Upper vs lower confidence bound.
    uint64_t traceId = 0;    //!< Optional v3 trace id; 0 = untraced.
};

/** Answer to a BoundQuery, read from a published shard snapshot. */
struct BoundAnswer
{
    bool known = false;        //!< false: no predictor for that key yet.
    double upper = 0.0;        //!< Upper bound, seconds (+inf possible).
    double lower = 0.0;        //!< Lower bound, seconds.
    double quantile = 0.0;     //!< Grid quantile actually answered.
    double confidence = 0.0;   //!< Configured confidence level C.
    uint64_t historySize = 0;  //!< Observations in the visible history.
    uint64_t observations = 0; //!< Waits ever observed for the key.
    uint64_t version = 0;      //!< Snapshot publish counter.
};

/** Per-shard ingest counters, for client resume fencing. */
struct ServeStats
{
    std::vector<uint64_t> processedPerShard;  //!< applied + rejected.
    uint64_t entries = 0;                     //!< Live predictor keys.
};

/**
 * Paper proc-bucket index (Table 5 bins 1-4 / 5-16 / 17-64 / 65+) for
 * an allocated processor count; procs < 1 clamps into the first bin.
 */
int procBucketFor(int procs);

/** Label ("1-4", "65+") for a bucket index from procBucketFor(). */
std::string procBucketLabel(int bucket);

// --- body codecs (no frame header) ---------------------------------

/** WAL/canonical layout: never includes traceId (see JobEvent). */
std::string encodeEvent(const JobEvent &event);

/** Wire layout: encodeEvent() plus the trailing trace id when the
 *  event carries one (traceId == 0 encodes byte-identically to v2). */
std::string encodeEventWire(const JobEvent &event);

/** Decodes v1, v2 and v3 bodies. The event and query decoders refuse
 *  an i64 procs outside int range rather than wrap it. */
Expected<JobEvent> decodeEvent(std::string_view body);

std::string encodeQuery(const BoundQuery &query);
Expected<BoundQuery> decodeQuery(std::string_view body);

/**
 * Decode into an existing BoundQuery, assigning its string members in
 * place so their heap capacity is reused across a pipelined batch.
 */
Expected<Unit> decodeQueryInto(std::string_view body, BoundQuery *query);

/** The answer body has no string-returning encoder: the server only
 *  ever sends one inside appendAnswerFrame(). */
Expected<BoundAnswer> decodeAnswer(std::string_view body);

std::string encodeStats(const ServeStats &stats);
Expected<ServeStats> decodeStats(std::string_view body);

// --- framing -------------------------------------------------------

/** Prepend the u32 length header to @p payload. */
std::string frame(std::string_view payload);

/** Request frame: u32 len | u8 opcode | body. */
std::string frameRequest(Opcode op, std::string_view body);

/**
 * Try to strip one frame off the front of @p buffer. Returns true and
 * fills @p payload (pointing into @p buffer) and @p consumed when a
 * complete frame is present; false when more bytes are needed. A frame
 * whose length field exceeds kMaxFrameBytes is a ParseError — the
 * connection cannot be resynchronized after a corrupt length.
 */
Expected<bool> unframe(std::string_view buffer, std::string_view *payload,
                       size_t *consumed);

// --- zero-allocation append path -----------------------------------
//
// The reactor's wire hot path encodes responses by appending into a
// caller-owned buffer that is reset (clear(), capacity retained)
// rather than freed between batches, so a steady-state connection
// allocates nothing per request. Each frame below is written by a
// persist::StateWriter over that buffer — the same encoder, and so the
// same bytes, as every body codec above.

/** Append a 4-byte frame-length placeholder; pass the returned mark to
 *  endFrame() once the payload bytes have been appended after it. */
size_t beginFrame(std::string &out);

/** Backpatch the length header appended by beginFrame(@p mark). */
void endFrame(std::string &out, size_t mark);

/** Append a complete Ok-response frame carrying @p body. */
void appendOkFrame(std::string &out, std::string_view body);

/** Append a complete Error-response frame. */
void appendErrorFrame(std::string &out, std::string_view message);

/** Append a complete Shed-response frame. */
void appendShedFrame(std::string &out, std::string_view reason,
                     uint32_t retryAfterSeconds);

/** Append an Ok frame carrying an encoded BoundAnswer — the batched
 *  query path's encoder; no intermediate strings are built. */
void appendAnswerFrame(std::string &out, const BoundAnswer &answer);

/** Append the Ok reply to an Event frame: u8 applied | str reject
 *  reason ("" unless rejected; @p rejectReason is read only then) |
 *  u8 deduped. */
void appendEventAckFrame(std::string &out, bool applied, bool deduped,
                         const char *rejectReason);

/** Append the Ok reply to a Ping frame: u32 kWireVersion. */
void appendPingFrame(std::string &out);

// --- SWF bridging --------------------------------------------------

/**
 * Expand trace jobs into the Submit/Start event stream a live resource
 * manager would have emitted, ordered by (time, jobId, Submit<Start).
 * Jobs without a recorded wait get a Submit only; jobId is the 1-based
 * position in @p jobs (SWF job-number semantics).
 */
std::vector<JobEvent> eventsFromJobs(const std::vector<trace::JobRecord> &jobs,
                                     const std::string &machine);

} // namespace serve
} // namespace qdel

#endif // QDEL_SERVE_WIRE_HH
