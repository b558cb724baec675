/**
 * @file
 * Implementation of the serve wire codec.
 */

#include "serve/wire.hh"

#include <algorithm>
#include <limits>

#include "persist/state_codec.hh"

namespace qdel {
namespace serve {

namespace {

using persist::StateReader;
using persist::StateWriter;

bool
isEventKind(uint8_t byte)
{
    switch (static_cast<EventKind>(byte)) {
    case EventKind::Submit:
    case EventKind::Start:
    case EventKind::Done:
        return true;
    }
    return false;
}

/** An i64 procs field, refused outside int range rather than wrapped
 *  into some other proc bucket (as HttpParams::integer refuses it). */
int
readProcs(StateReader &reader, const char *field)
{
    const int64_t procs = reader.i64();
    if (procs < std::numeric_limits<int>::min() ||
        procs > std::numeric_limits<int>::max()) {
        reader.fail(ParseError{"", 0, field,
                               "procs " + std::to_string(procs) +
                                   " out of int range"});
        return 0;
    }
    return static_cast<int>(procs);
}

} // namespace

size_t
beginFrame(std::string &out)
{
    const size_t mark = out.size();
    out.append(4, '\0');
    return mark;
}

void
endFrame(std::string &out, size_t mark)
{
    const uint32_t length = static_cast<uint32_t>(out.size() - mark - 4);
    for (size_t i = 0; i < 4; ++i)
        out[mark + i] = static_cast<char>((length >> (8 * i)) & 0xFFu);
}

void
appendOkFrame(std::string &out, std::string_view body)
{
    const size_t mark = beginFrame(out);
    StateWriter(out).u8(static_cast<uint8_t>(Status::Ok));
    out.append(body.data(), body.size());
    endFrame(out, mark);
}

void
appendErrorFrame(std::string &out, std::string_view message)
{
    const size_t mark = beginFrame(out);
    StateWriter writer(out);
    writer.u8(static_cast<uint8_t>(Status::Error));
    writer.str(message);
    endFrame(out, mark);
}

void
appendShedFrame(std::string &out, std::string_view reason,
                uint32_t retryAfterSeconds)
{
    const size_t mark = beginFrame(out);
    StateWriter writer(out);
    writer.u8(static_cast<uint8_t>(Status::Shed));
    writer.str(reason);
    writer.u32(retryAfterSeconds);
    endFrame(out, mark);
}

void
appendAnswerFrame(std::string &out, const BoundAnswer &answer)
{
    const size_t mark = beginFrame(out);
    StateWriter writer(out);
    writer.u8(static_cast<uint8_t>(Status::Ok));
    writer.u8(answer.known ? 1 : 0);
    writer.f64(answer.upper);
    writer.f64(answer.lower);
    writer.f64(answer.quantile);
    writer.f64(answer.confidence);
    writer.u64(answer.historySize);
    writer.u64(answer.observations);
    writer.u64(answer.version);
    endFrame(out, mark);
}

void
appendEventAckFrame(std::string &out, bool applied, bool deduped,
                    const char *rejectReason)
{
    const size_t mark = beginFrame(out);
    StateWriter writer(out);
    writer.u8(static_cast<uint8_t>(Status::Ok));
    writer.u8(applied ? 1 : 0);
    writer.str(applied || deduped ? std::string_view()
                                  : std::string_view(rejectReason));
    writer.u8(deduped ? 1 : 0);
    endFrame(out, mark);
}

void
appendPingFrame(std::string &out)
{
    const size_t mark = beginFrame(out);
    StateWriter writer(out);
    writer.u8(static_cast<uint8_t>(Status::Ok));
    writer.u32(kWireVersion);
    endFrame(out, mark);
}

int
procBucketFor(int procs)
{
    const int clamped = std::max(procs, 1);
    const trace::ProcRange *ranges = trace::paperProcRanges();
    const int count = trace::paperProcRangeCount();
    for (int i = 0; i < count; ++i) {
        if (ranges[i].contains(clamped))
            return i;
    }
    return count - 1;  // 65+ is unbounded, so this is unreachable.
}

std::string
procBucketLabel(int bucket)
{
    const int count = trace::paperProcRangeCount();
    if (bucket < 0 || bucket >= count)
        return "?";
    return trace::paperProcRanges()[bucket].label();
}

std::string
encodeEvent(const JobEvent &event)
{
    StateWriter writer;
    writer.u8(static_cast<uint8_t>(event.kind));
    writer.u64(event.jobId);
    writer.f64(event.time);
    writer.i64(event.procs);
    writer.str(event.machine);
    writer.str(event.queue);
    writer.str(event.clientId);
    writer.u64(event.seq);
    return writer.take();
}

std::string
encodeEventWire(const JobEvent &event)
{
    std::string bytes = encodeEvent(event);
    if (event.traceId != 0)
        StateWriter(bytes).u64(event.traceId);
    return bytes;
}

Expected<JobEvent>
decodeEvent(std::string_view body)
{
    StateReader reader(body, "event");
    JobEvent event;
    const uint8_t kind = reader.u8();
    if (!isEventKind(kind)) {
        reader.fail(ParseError{"", 0, "event.kind",
                               "unknown event kind " +
                                   std::to_string(kind)});
    }
    event.kind = static_cast<EventKind>(kind);
    event.jobId = reader.u64();
    event.time = reader.f64();
    event.procs = readProcs(reader, "event.procs");
    event.machine = reader.str();
    event.queue = reader.str();
    // v1 events (WAL blobs written before the idempotency fields
    // existed) end here; v2 carries clientId + seq, and v3 may append
    // a trace id after them.
    if (reader.remaining() > 0) {
        event.clientId = reader.str();
        event.seq = reader.u64();
    }
    if (reader.remaining() > 0)
        event.traceId = reader.u64();
    if (auto end = reader.expectEnd(); !end.ok())
        return end.error();
    return event;
}

std::string
encodeQuery(const BoundQuery &query)
{
    StateWriter writer;
    writer.str(query.machine);
    writer.str(query.queue);
    writer.i64(query.procs);
    writer.f64(query.quantile);
    writer.u8(query.upper ? 1 : 0);
    // v3 trace tail: omitted when untraced so the v2 byte layout is
    // preserved exactly for the common case.
    if (query.traceId != 0)
        writer.u64(query.traceId);
    return writer.take();
}

Expected<BoundQuery>
decodeQuery(std::string_view body)
{
    BoundQuery query;
    if (auto decoded = decodeQueryInto(body, &query); !decoded.ok())
        return decoded.error();
    return query;
}

Expected<Unit>
decodeQueryInto(std::string_view body, BoundQuery *query)
{
    StateReader reader(body, "query");
    query->machine.assign(reader.strView());
    query->queue.assign(reader.strView());
    query->procs = readProcs(reader, "query.procs");
    query->quantile = reader.f64();
    query->upper = reader.u8() != 0;
    // Assign unconditionally: @p query is reused scratch, and a stale
    // trace id from a previous batch slot must not leak forward.
    query->traceId = reader.remaining() > 0 ? reader.u64() : 0;
    return reader.expectEnd();
}

Expected<BoundAnswer>
decodeAnswer(std::string_view body)
{
    StateReader reader(body, "answer");
    BoundAnswer answer;
    answer.known = reader.u8() != 0;
    answer.upper = reader.f64();
    answer.lower = reader.f64();
    answer.quantile = reader.f64();
    answer.confidence = reader.f64();
    answer.historySize = reader.u64();
    answer.observations = reader.u64();
    answer.version = reader.u64();
    if (auto end = reader.expectEnd(); !end.ok())
        return end.error();
    return answer;
}

std::string
encodeStats(const ServeStats &stats)
{
    StateWriter writer;
    writer.u64(stats.entries);
    writer.u64(stats.processedPerShard.size());
    for (uint64_t count : stats.processedPerShard)
        writer.u64(count);
    return writer.take();
}

Expected<ServeStats>
decodeStats(std::string_view body)
{
    StateReader reader(body, "stats");
    ServeStats stats;
    stats.entries = reader.u64();
    const uint64_t shard_count = reader.u64();
    if (shard_count > kMaxFrameBytes / 8) {
        reader.fail(ParseError{"", 0, "stats.shards",
                               "implausible shard count " +
                                   std::to_string(shard_count)});
    }
    for (uint64_t i = 0; i < shard_count && reader.ok(); ++i)
        stats.processedPerShard.push_back(reader.u64());
    if (auto end = reader.expectEnd(); !end.ok())
        return end.error();
    return stats;
}

std::string
frame(std::string_view payload)
{
    std::string bytes;
    StateWriter(bytes).u32(static_cast<uint32_t>(payload.size()));
    bytes.append(payload.data(), payload.size());
    return bytes;
}

std::string
frameRequest(Opcode op, std::string_view body)
{
    std::string bytes;
    const size_t mark = beginFrame(bytes);
    StateWriter(bytes).u8(static_cast<uint8_t>(op));
    bytes.append(body.data(), body.size());
    endFrame(bytes, mark);
    return bytes;
}

Expected<bool>
unframe(std::string_view buffer, std::string_view *payload, size_t *consumed)
{
    if (buffer.size() < 4)
        return false;
    const uint32_t length = StateReader(buffer.substr(0, 4), "frame").u32();
    if (length > kMaxFrameBytes) {
        return ParseError{"", 0, "frame.length",
                          "frame length " + std::to_string(length) +
                              " exceeds limit " +
                              std::to_string(kMaxFrameBytes)};
    }
    if (buffer.size() - 4 < length)
        return false;
    *payload = buffer.substr(4, length);
    *consumed = 4 + static_cast<size_t>(length);
    return true;
}

std::vector<JobEvent>
eventsFromJobs(const std::vector<trace::JobRecord> &jobs,
               const std::string &machine)
{
    std::vector<JobEvent> events;
    events.reserve(jobs.size() * 2);
    for (size_t i = 0; i < jobs.size(); ++i) {
        const trace::JobRecord &job = jobs[i];
        JobEvent submit;
        submit.kind = EventKind::Submit;
        submit.jobId = i + 1;
        submit.time = job.submitTime;
        submit.machine = machine;
        submit.queue = job.queue;
        submit.procs = job.procs;
        events.push_back(submit);
        if (!job.hasWait())
            continue;
        JobEvent start = submit;
        start.kind = EventKind::Start;
        start.time = job.startTime();
        events.push_back(start);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const JobEvent &a, const JobEvent &b) {
                         if (a.time != b.time)
                             return a.time < b.time;
                         if (a.jobId != b.jobId)
                             return a.jobId < b.jobId;
                         return static_cast<uint8_t>(a.kind) <
                                static_cast<uint8_t>(b.kind);
                     });
    return events;
}

} // namespace serve
} // namespace qdel
