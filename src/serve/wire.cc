/**
 * @file
 * Implementation of the serve wire codec.
 */

#include "serve/wire.hh"

#include <algorithm>
#include <cstring>

#include "persist/state_codec.hh"

namespace qdel {
namespace serve {

namespace {

using persist::StateReader;
using persist::StateWriter;

Expected<EventKind>
kindFromByte(uint8_t byte, const char *field)
{
    switch (static_cast<EventKind>(byte)) {
    case EventKind::Submit:
    case EventKind::Start:
    case EventKind::Done:
        return static_cast<EventKind>(byte);
    }
    return ParseError{"", 0, field,
                      "unknown event kind " + std::to_string(byte)};
}

} // namespace

void
putU8(std::string &out, uint8_t value)
{
    out.push_back(static_cast<char>(value));
}

void
putU32(std::string &out, uint32_t value)
{
    for (size_t i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
}

void
putU64(std::string &out, uint64_t value)
{
    for (size_t i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
}

void
putI64(std::string &out, int64_t value)
{
    putU64(out, static_cast<uint64_t>(value));
}

void
putF64(std::string &out, double value)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    putU64(out, bits);
}

void
putStr(std::string &out, std::string_view value)
{
    putU64(out, value.size());
    out.append(value.data(), value.size());
}

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
    putU8(out, static_cast<uint8_t>(Status::Ok));
    out.append(body.data(), body.size());
    endFrame(out, mark);
}

void
appendErrorFrame(std::string &out, std::string_view message)
{
    const size_t mark = beginFrame(out);
    putU8(out, static_cast<uint8_t>(Status::Error));
    putStr(out, message);
    endFrame(out, mark);
}

void
appendShedFrame(std::string &out, std::string_view reason,
                uint32_t retryAfterSeconds)
{
    const size_t mark = beginFrame(out);
    putU8(out, static_cast<uint8_t>(Status::Shed));
    putStr(out, reason);
    putU32(out, retryAfterSeconds);
    endFrame(out, mark);
}

void
appendAnswerFrame(std::string &out, const BoundAnswer &answer)
{
    const size_t mark = beginFrame(out);
    putU8(out, static_cast<uint8_t>(Status::Ok));
    putU8(out, answer.known ? 1 : 0);
    putF64(out, answer.upper);
    putF64(out, answer.lower);
    putF64(out, answer.quantile);
    putF64(out, answer.confidence);
    putU64(out, answer.historySize);
    putU64(out, answer.observations);
    putU64(out, answer.version);
    endFrame(out, mark);
}

void
appendEventAckFrame(std::string &out, bool applied, bool deduped,
                    const char *rejectReason)
{
    const size_t mark = beginFrame(out);
    putU8(out, static_cast<uint8_t>(Status::Ok));
    putU8(out, applied ? 1 : 0);
    putStr(out, applied || deduped ? std::string_view()
                                   : std::string_view(rejectReason));
    putU8(out, deduped ? 1 : 0);
    endFrame(out, mark);
}

void
appendPingFrame(std::string &out)
{
    const size_t mark = beginFrame(out);
    putU8(out, static_cast<uint8_t>(Status::Ok));
    putU32(out, kWireVersion);
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
        putU64(bytes, event.traceId);
    return bytes;
}

Expected<JobEvent>
decodeEvent(std::string_view body)
{
    StateReader reader(body, "event");
    JobEvent event;
    auto kind_byte = reader.u8();
    if (!kind_byte.ok())
        return kind_byte.error();
    auto kind = kindFromByte(kind_byte.value(), "event.kind");
    if (!kind.ok())
        return kind.error();
    event.kind = kind.value();
    auto job_id = reader.u64();
    if (!job_id.ok())
        return job_id.error();
    event.jobId = job_id.value();
    auto time = reader.f64();
    if (!time.ok())
        return time.error();
    event.time = time.value();
    auto procs = reader.i64();
    if (!procs.ok())
        return procs.error();
    event.procs = static_cast<int>(procs.value());
    auto machine = reader.str();
    if (!machine.ok())
        return machine.error();
    event.machine = std::move(machine).value();
    auto queue = reader.str();
    if (!queue.ok())
        return queue.error();
    event.queue = std::move(queue).value();
    // v1 events (WAL blobs written before the idempotency fields
    // existed) end here; v2 carries clientId + seq, and v3 may append
    // a trace id after them.
    if (reader.remaining() > 0) {
        auto client_id = reader.str();
        if (!client_id.ok())
            return client_id.error();
        event.clientId = std::move(client_id).value();
        auto seq = reader.u64();
        if (!seq.ok())
            return seq.error();
        event.seq = seq.value();
    }
    if (reader.remaining() > 0) {
        auto trace = reader.u64();
        if (!trace.ok())
            return trace.error();
        event.traceId = trace.value();
    }
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
    auto machine = reader.strView();
    if (!machine.ok())
        return machine.error();
    query->machine.assign(machine.value());
    auto queue = reader.strView();
    if (!queue.ok())
        return queue.error();
    query->queue.assign(queue.value());
    auto procs = reader.i64();
    if (!procs.ok())
        return procs.error();
    query->procs = static_cast<int>(procs.value());
    auto quantile = reader.f64();
    if (!quantile.ok())
        return quantile.error();
    query->quantile = quantile.value();
    auto upper = reader.u8();
    if (!upper.ok())
        return upper.error();
    query->upper = upper.value() != 0;
    // Assign unconditionally: @p query is reused scratch, and a stale
    // trace id from a previous batch slot must not leak forward.
    query->traceId = 0;
    if (reader.remaining() > 0) {
        auto trace = reader.u64();
        if (!trace.ok())
            return trace.error();
        query->traceId = trace.value();
    }
    if (auto end = reader.expectEnd(); !end.ok())
        return end.error();
    return Unit{};
}

std::string
encodeAnswer(const BoundAnswer &answer)
{
    StateWriter writer;
    writer.u8(answer.known ? 1 : 0);
    writer.f64(answer.upper);
    writer.f64(answer.lower);
    writer.f64(answer.quantile);
    writer.f64(answer.confidence);
    writer.u64(answer.historySize);
    writer.u64(answer.observations);
    writer.u64(answer.version);
    return writer.take();
}

Expected<BoundAnswer>
decodeAnswer(std::string_view body)
{
    StateReader reader(body, "answer");
    BoundAnswer answer;
    auto known = reader.u8();
    if (!known.ok())
        return known.error();
    answer.known = known.value() != 0;
    auto upper = reader.f64();
    if (!upper.ok())
        return upper.error();
    answer.upper = upper.value();
    auto lower = reader.f64();
    if (!lower.ok())
        return lower.error();
    answer.lower = lower.value();
    auto quantile = reader.f64();
    if (!quantile.ok())
        return quantile.error();
    answer.quantile = quantile.value();
    auto confidence = reader.f64();
    if (!confidence.ok())
        return confidence.error();
    answer.confidence = confidence.value();
    auto history = reader.u64();
    if (!history.ok())
        return history.error();
    answer.historySize = history.value();
    auto observations = reader.u64();
    if (!observations.ok())
        return observations.error();
    answer.observations = observations.value();
    auto version = reader.u64();
    if (!version.ok())
        return version.error();
    answer.version = version.value();
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
    auto entries = reader.u64();
    if (!entries.ok())
        return entries.error();
    stats.entries = entries.value();
    auto shard_count = reader.u64();
    if (!shard_count.ok())
        return shard_count.error();
    if (shard_count.value() > kMaxFrameBytes / 8) {
        return ParseError{"", 0, "stats.shards",
                          "implausible shard count " +
                              std::to_string(shard_count.value())};
    }
    stats.processedPerShard.reserve(shard_count.value());
    for (uint64_t i = 0; i < shard_count.value(); ++i) {
        auto count = reader.u64();
        if (!count.ok())
            return count.error();
        stats.processedPerShard.push_back(count.value());
    }
    if (auto end = reader.expectEnd(); !end.ok())
        return end.error();
    return stats;
}

std::string
frame(std::string_view payload)
{
    StateWriter header;
    header.u32(static_cast<uint32_t>(payload.size()));
    std::string bytes = header.take();
    bytes.append(payload.data(), payload.size());
    return bytes;
}

std::string
frameRequest(Opcode op, std::string_view body)
{
    StateWriter payload;
    payload.u8(static_cast<uint8_t>(op));
    std::string bytes = payload.take();
    bytes.append(body.data(), body.size());
    return frame(bytes);
}

std::string
frameOk(std::string_view body)
{
    StateWriter payload;
    payload.u8(static_cast<uint8_t>(Status::Ok));
    std::string bytes = payload.take();
    bytes.append(body.data(), body.size());
    return frame(bytes);
}

std::string
frameError(const std::string &message)
{
    StateWriter payload;
    payload.u8(static_cast<uint8_t>(Status::Error));
    payload.str(message);
    return frame(payload.bytes());
}

std::string
frameShed(const std::string &reason, uint32_t retryAfterSeconds)
{
    StateWriter payload;
    payload.u8(static_cast<uint8_t>(Status::Shed));
    payload.str(reason);
    payload.u32(retryAfterSeconds);
    return frame(payload.bytes());
}

Expected<bool>
unframe(std::string_view buffer, std::string_view *payload, size_t *consumed)
{
    if (buffer.size() < 4)
        return false;
    StateReader header(buffer.substr(0, 4), "frame");
    const uint32_t length = header.u32().value();
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
