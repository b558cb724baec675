/**
 * @file
 * Implementation of the sharded .qtc writer and the streaming column
 * reader. See the header for the manifest format and invariants.
 */

#include "trace/qtc_stream.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "persist/io.hh"
#include "util/logging.hh"

namespace qdel {
namespace trace {

namespace {

constexpr char kManifestMagic[] = "QTCS1";

bool
endsWith(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** "<base>-00042.qtc" — zero-padded so lexical order is shard order. */
std::string
shardFileName(const std::string &base, size_t index)
{
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "-%05zu.qtc", index);
    return base + suffix;
}

ParseError
manifestError(const std::string &path, size_t line, std::string reason)
{
    ParseError error;
    error.file = path;
    error.line = line;
    error.reason = std::move(reason);
    return error;
}

} // namespace

// ---------------------------------------------------------------------
// ShardedTraceWriter

ShardedTraceWriter::ShardedTraceWriter(ShardWriterOptions options)
    : options_(std::move(options))
{
    if (options_.shardSize == 0)
        panic("ShardedTraceWriter: shardSize must be > 0");
    if (options_.directory.empty())
        panic("ShardedTraceWriter: directory must be set");
    shard_.reserve(options_.shardSize);
    if (auto made = persist::ensureDirectory(options_.directory);
        !made.ok())
        err_ = made.error();
}

uint32_t
ShardedTraceWriter::internQueue(const std::string &queue)
{
    if (!queueNames_.empty() && queue == lastQueue_)
        return lastQueueId_;
    auto inserted = queueIds_.emplace(
        queue, static_cast<uint32_t>(queueNames_.size()));
    if (inserted.second)
        queueNames_.push_back(queue);
    lastQueue_ = queue;
    lastQueueId_ = inserted.first->second;
    return lastQueueId_;
}

void
ShardedTraceWriter::add(const JobRecord &job)
{
    add(job.submitTime, job.waitSeconds, job.runSeconds, job.status,
        job.procs, job.queue);
}

void
ShardedTraceWriter::add(double submit_time, double wait_seconds,
                        double run_seconds, long long status, int procs,
                        const std::string &queue)
{
    if (finished_)
        panic("ShardedTraceWriter::add after finish()");
    if (!err_.ok())
        return;  // Sticky failure; finish() reports it.
    const uint32_t queue_id = internQueue(queue);
    if (queue_id >= shardQueueJobs_.size())
        shardQueueJobs_.resize(queue_id + 1, 0);
    ++shardQueueJobs_[queue_id];
    shard_.push(submit_time, wait_seconds, run_seconds, status, procs,
                queue_id);
    ++totalJobs_;
    if (shard_.size() >= options_.shardSize)
        flushShard();
}

void
ShardedTraceWriter::flushShard()
{
    const size_t n = shard_.size();
    if (n == 0 || !err_.ok())
        return;

    ShardEntry entry;
    entry.file = shardFileName(options_.baseName, shards_.size());
    entry.jobs = n;
    entry.queueJobs = shardQueueJobs_;
    const std::string path = options_.directory + "/" + entry.file;

    // Each shard is a complete, self-describing .qtc image; the queue
    // table is the full global table known at flush time, so queue ids
    // in the columns are global (invariant 1 in the header).
    IngestReport report;
    report.source = entry.file;
    report.totalLines = n;
    report.parsedRecords = n;

    const std::string bytes =
        encodeQtcImage(shard_.view(), options_.site, options_.machine,
                       queueNames_, report, /*options_word=*/0,
                       FileStamp{});
    if (auto wrote = persist::atomicWriteFile(path, bytes); !wrote.ok()) {
        err_ = wrote.error();
        return;
    }
    shards_.push_back(std::move(entry));

    shard_.clear();
    shardQueueJobs_.assign(queueNames_.size(), 0);
}

std::string
ShardedTraceWriter::manifestPath() const
{
    return options_.directory + "/" + options_.baseName +
           kQtcManifestExtension;
}

Expected<Unit>
ShardedTraceWriter::finish()
{
    if (finished_)
        panic("ShardedTraceWriter::finish called twice");
    finished_ = true;
    flushShard();
    if (!err_.ok())
        return err_;

    std::ostringstream out;
    out << kManifestMagic << "\n";
    out << "site=" << options_.site << "\n";
    out << "machine=" << options_.machine << "\n";
    out << "queues=" << queueNames_.size() << "\n";
    for (const std::string &queue : queueNames_)
        out << queue << "\n";
    out << "shards=" << shards_.size() << "\n";
    for (const ShardEntry &entry : shards_) {
        out << entry.file << " " << entry.jobs;
        // Early shards may predate later queues; pad with zeros so
        // every row has exactly queues= columns.
        for (size_t q = 0; q < queueNames_.size(); ++q)
            out << " "
                << (q < entry.queueJobs.size() ? entry.queueJobs[q] : 0);
        out << "\n";
    }
    out << "total=" << totalJobs_ << "\n";
    return persist::atomicWriteFile(manifestPath(), out.str());
}

// ---------------------------------------------------------------------
// StreamingTraceReader

namespace {

/** Parse "key=value" where key is fixed; value returned as string. */
Expected<std::string>
manifestField(const std::string &line, const std::string &key,
              const std::string &path, size_t line_no)
{
    const std::string prefix = key + "=";
    if (line.compare(0, prefix.size(), prefix) != 0)
        return manifestError(path, line_no,
                             "expected '" + key + "=...', got '" + line +
                                 "'");
    return line.substr(prefix.size());
}

Expected<uint64_t>
manifestCount(const std::string &line, const std::string &key,
              const std::string &path, size_t line_no)
{
    auto text = manifestField(line, key, path, line_no);
    if (!text.ok())
        return text.error();
    uint64_t value = 0;
    if (std::sscanf(text.value().c_str(), "%" SCNu64, &value) != 1)
        return manifestError(path, line_no,
                             "bad count in '" + line + "'");
    return value;
}

} // namespace

Expected<StreamingTraceReader>
StreamingTraceReader::open(const std::string &path,
                           StreamReadOptions options)
{
    if (options.batchSize == 0)
        panic("StreamingTraceReader: batchSize must be > 0");
    StreamingTraceReader reader;
    reader.options_ = options;

    const bool is_manifest = endsWith(path, kQtcManifestExtension);
    if (!is_manifest) {
        // Single .qtc image: one shard; derive the per-queue counts by
        // scanning the queueId column once (cheap relative to replay),
        // then unmap until streaming begins.
        auto file = MappedFile::open(path);
        if (!file.ok())
            return file.error();
        QtcParseResult parsed =
            parseQtcView(file.value().view(), options.verifyCrc);
        if (parsed.status != CacheStatus::Hit)
            return ParseError{path, 0, "", parsed.detail};
        const QtcView &view = parsed.view;
        reader.site_ = view.site;
        reader.machine_ = view.machine;
        reader.queueNames_ = view.queueNames;
        reader.jobCount_ = view.jobCount;
        reader.queueJobCounts_.assign(view.queueNames.size(), 0);
        for (size_t i = 0; i < view.jobCount; ++i)
            ++reader.queueJobCounts_[view.queueId[i]];
        reader.shards_.push_back(
            ShardRef{path, static_cast<uint64_t>(view.jobCount)});
        return reader;
    }

    auto file = MappedFile::open(path);
    if (!file.ok())
        return file.error();
    std::istringstream in{std::string(file.value().view())};
    const size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);

    std::string line;
    size_t line_no = 1;
    if (!std::getline(in, line) || line != kManifestMagic)
        return manifestError(path, 1, "bad manifest magic");

    auto read_line = [&](const char *what) -> Expected<std::string> {
        ++line_no;
        if (!std::getline(in, line))
            return manifestError(path, line_no,
                                 std::string("missing ") + what);
        return line;
    };

    auto site = read_line("site");
    if (!site.ok())
        return site.error();
    auto site_value = manifestField(site.value(), "site", path, line_no);
    if (!site_value.ok())
        return site_value.error();
    reader.site_ = site_value.value();

    auto machine = read_line("machine");
    if (!machine.ok())
        return machine.error();
    auto machine_value =
        manifestField(machine.value(), "machine", path, line_no);
    if (!machine_value.ok())
        return machine_value.error();
    reader.machine_ = machine_value.value();

    auto queues = read_line("queues");
    if (!queues.ok())
        return queues.error();
    auto queue_count = manifestCount(queues.value(), "queues", path,
                                     line_no);
    if (!queue_count.ok())
        return queue_count.error();
    for (uint64_t q = 0; q < queue_count.value(); ++q) {
        auto name = read_line("queue name");
        if (!name.ok())
            return name.error();
        reader.queueNames_.push_back(name.value());
    }
    reader.queueJobCounts_.assign(reader.queueNames_.size(), 0);

    auto shards = read_line("shards");
    if (!shards.ok())
        return shards.error();
    auto shard_count = manifestCount(shards.value(), "shards", path,
                                     line_no);
    if (!shard_count.ok())
        return shard_count.error();
    for (uint64_t s = 0; s < shard_count.value(); ++s) {
        auto row = read_line("shard row");
        if (!row.ok())
            return row.error();
        std::istringstream fields(row.value());
        ShardRef shard;
        std::string file_name;
        if (!(fields >> file_name >> shard.jobs))
            return manifestError(path, line_no, "bad shard row");
        shard.path = dir + "/" + file_name;
        uint64_t per_queue_total = 0;
        for (size_t q = 0; q < reader.queueNames_.size(); ++q) {
            uint64_t count = 0;
            if (!(fields >> count))
                return manifestError(path, line_no,
                                     "short shard row");
            reader.queueJobCounts_[q] += count;
            per_queue_total += count;
        }
        if (per_queue_total != shard.jobs)
            return manifestError(path, line_no,
                                 "per-queue counts do not sum to jobs");
        reader.jobCount_ += shard.jobs;
        reader.shards_.push_back(std::move(shard));
    }

    auto total = read_line("total");
    if (!total.ok())
        return total.error();
    auto total_count = manifestCount(total.value(), "total", path,
                                     line_no);
    if (!total_count.ok())
        return total_count.error();
    if (total_count.value() != reader.jobCount_)
        return manifestError(path, line_no,
                             "total does not match shard sum");
    return reader;
}

Expected<Unit>
StreamingTraceReader::loadShard(size_t index)
{
    unloadShard();
    const ShardRef &shard = shards_[index];
    auto file = MappedFile::open(shard.path);
    if (!file.ok())
        return file.error();
    QtcParseResult parsed =
        parseQtcView(file.value().view(), options_.verifyCrc);
    if (parsed.status != CacheStatus::Hit)
        return ParseError{shard.path, 0, "", parsed.detail};
    QtcView &view = parsed.view;
    if (view.jobCount != shard.jobs)
        return ParseError{shard.path, 0, "",
                          "shard job count disagrees with manifest"};
    // Invariant 1: the shard's queue table must be a prefix of the
    // global table, so its raw queueId column is valid globally.
    if (view.queueNames.size() > queueNames_.size())
        return ParseError{shard.path, 0, "",
                          "shard queue table larger than manifest's"};
    for (size_t q = 0; q < view.queueNames.size(); ++q) {
        if (view.queueNames[q] != queueNames_[q])
            return ParseError{shard.path, 0, "",
                              "shard queue table mismatch: '" +
                                  view.queueNames[q] + "' != '" +
                                  queueNames_[q] + "'"};
    }
    mapped_ = std::move(file).value();
    view_ = std::move(view);
    loaded_ = true;
    shardIndex_ = index;
    rowInShard_ = 0;
    return Unit{};
}

void
StreamingTraceReader::unloadShard()
{
    if (!loaded_)
        return;
    mapped_ = MappedFile();
    view_ = QtcView{};
    loaded_ = false;
}

Expected<bool>
StreamingTraceReader::next(ColumnBatch *batch)
{
    while (true) {
        if (!loaded_) {
            if (shardIndex_ >= shards_.size())
                return false;
            if (auto ok = loadShard(shardIndex_); !ok.ok())
                return ok.error();
        }
        if (rowInShard_ >= view_.jobCount) {
            // Unmap before moving on: the previous shard's pages leave
            // RSS here, which is what bounds resident memory.
            unloadShard();
            ++shardIndex_;
            continue;
        }
        const size_t remaining = view_.jobCount - rowInShard_;
        const size_t take = std::min(options_.batchSize, remaining);
        batch->begin = globalRow_;
        batch->size = take;
        batch->submit = view_.submit + rowInShard_;
        batch->wait = view_.wait + rowInShard_;
        batch->run = view_.run + rowInShard_;
        batch->status = view_.status + rowInShard_;
        batch->procs = view_.procs + rowInShard_;
        batch->queueId = view_.queueId + rowInShard_;
        rowInShard_ += take;
        globalRow_ += take;
        return true;
    }
}

void
StreamingTraceReader::reset()
{
    unloadShard();
    shardIndex_ = 0;
    rowInShard_ = 0;
    globalRow_ = 0;
}

Expected<Trace>
StreamingTraceReader::materialize()
{
    reset();
    TraceColumns columns;
    columns.reserve(jobCount_);
    ColumnBatch batch;
    while (true) {
        auto more = next(&batch);
        if (!more.ok())
            return more.error();
        if (!more.value())
            break;
        columns.append(batch.columns());
    }
    reset();
    Trace out(site_, machine_);
    out.append(std::move(columns), queueNames_);
    return out;
}

} // namespace trace
} // namespace qdel
