/**
 * @file
 * Implementation of the binary columnar trace cache. See the header
 * for the on-disk layout.
 */

#include "trace/trace_cache.hh"

#include <cstring>
#include <vector>

#include "persist/io.hh"

namespace qdel {
namespace trace {

namespace {

constexpr char kMagic[4] = {'Q', 'T', 'C', '1'};
constexpr size_t kHeaderBytes = 40;
constexpr size_t kCrcBytes = 4;

/** Options-word bits (bit 0 distinguishes the source format). */
enum OptionBits : uint32_t
{
    kOptNative = 1u << 0,
    kOptLenient = 1u << 1,
    kOptSkipMissingWait = 1u << 2,
    kOptSkipFailed = 1u << 3,
};

// ---------------------------------------------------------------------
// Serialization

template <typename T>
void
appendScalar(std::string &out, T value)
{
    char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    out.append(raw, sizeof(T));
}

void
appendString(std::string &out, const std::string &text)
{
    appendScalar<uint32_t>(out, static_cast<uint32_t>(text.size()));
    out.append(text);
}

template <typename T>
void
appendColumn(std::string &out, const T *column, size_t count)
{
    out.append(reinterpret_cast<const char *>(column),
               count * sizeof(T));
}

// ---------------------------------------------------------------------
// Deserialization: a bounds-checked forward cursor. Every read either
// succeeds or trips the `bad` flag; callers check once at the end of a
// section, which keeps the hot column loads branch-light.

struct Cursor
{
    const char *data;
    size_t size;
    size_t pos = 0;
    bool bad = false;

    template <typename T>
    T
    scalar()
    {
        T value{};
        if (bad || size - pos < sizeof(T)) {
            bad = true;
            return value;
        }
        std::memcpy(&value, data + pos, sizeof(T));
        pos += sizeof(T);
        return value;
    }

    std::string
    str()
    {
        const uint32_t len = scalar<uint32_t>();
        if (bad || size - pos < len) {
            bad = true;
            return {};
        }
        std::string out(data + pos, len);
        pos += len;
        return out;
    }

};

/**
 * Hand out a typed pointer into the cursor's buffer instead of
 * copying the column out — sound because the v2 layout keeps every
 * column start naturally aligned (see trace_cache.hh).
 */
template <typename T>
const T *
columnPtr(Cursor &cursor, size_t count)
{
    if (cursor.bad || (cursor.size - cursor.pos) / sizeof(T) < count) {
        cursor.bad = true;
        return nullptr;
    }
    const T *ptr = reinterpret_cast<const T *>(cursor.data + cursor.pos);
    cursor.pos += count * sizeof(T);
    return ptr;
}

CacheReadResult
miss(CacheStatus status, std::string detail)
{
    CacheReadResult out;
    out.status = status;
    out.detail = std::move(detail);
    return out;
}

QtcParseResult
parseMiss(CacheStatus status, std::string detail)
{
    QtcParseResult out;
    out.status = status;
    out.detail = std::move(detail);
    return out;
}

} // namespace

uint32_t
swfCacheOptions(const SwfParseOptions &options)
{
    uint32_t word = 0;
    if (options.mode == ParseMode::Lenient)
        word |= kOptLenient;
    if (options.skipMissingWait)
        word |= kOptSkipMissingWait;
    if (options.skipFailed)
        word |= kOptSkipFailed;
    return word;
}

uint32_t
nativeCacheOptions(const NativeParseOptions &options)
{
    uint32_t word = kOptNative;
    if (options.mode == ParseMode::Lenient)
        word |= kOptLenient;
    return word;
}

std::string
traceCachePath(const std::string &trace_path, const std::string &cache_dir)
{
    if (cache_dir.empty())
        return trace_path + ".qtc";
    const size_t slash = trace_path.find_last_of('/');
    const std::string base = slash == std::string::npos
                                 ? trace_path
                                 : trace_path.substr(slash + 1);
    return cache_dir + "/" + base + ".qtc";
}

std::string
encodeQtcImage(const ColumnsView &columns, const std::string &site,
               const std::string &machine,
               const std::vector<std::string> &queue_names,
               const IngestReport &report, uint32_t options_word,
               const FileStamp &source_stamp)
{
    const size_t n = columns.n;
    std::string bytes;
    bytes.reserve(kHeaderBytes + n * 36 + 1024);
    bytes.append(kMagic, sizeof(kMagic));
    appendScalar<uint32_t>(bytes, kTraceCacheVersion);
    appendScalar<uint32_t>(bytes, options_word);
    appendScalar<uint32_t>(bytes, 0);
    appendScalar<uint64_t>(bytes, source_stamp.sizeBytes);
    appendScalar<int64_t>(bytes, source_stamp.mtimeNs);
    appendScalar<uint64_t>(bytes, static_cast<uint64_t>(n));

    appendColumn(bytes, columns.submit, n);
    appendColumn(bytes, columns.wait, n);
    appendColumn(bytes, columns.run, n);
    appendColumn(bytes, columns.status, n);
    appendColumn(bytes, columns.procs, n);
    appendColumn(bytes, columns.queueId, n);

    appendString(bytes, site);
    appendString(bytes, machine);
    appendScalar<uint32_t>(bytes,
                           static_cast<uint32_t>(queue_names.size()));
    for (const std::string &queue : queue_names)
        appendString(bytes, queue);

    appendString(bytes, report.source);
    appendScalar<uint64_t>(bytes, report.totalLines);
    appendScalar<uint64_t>(bytes, report.commentLines);
    appendScalar<uint64_t>(bytes, report.parsedRecords);
    appendScalar<uint64_t>(bytes, report.malformedLines);
    appendScalar<uint64_t>(bytes, report.filteredRecords);
    appendScalar<uint32_t>(bytes,
                           static_cast<uint32_t>(report.errors.size()));
    for (const ParseError &error : report.errors) {
        appendString(bytes, error.file);
        appendScalar<uint64_t>(bytes, static_cast<uint64_t>(error.line));
        appendString(bytes, error.field);
        appendString(bytes, error.reason);
    }

    appendScalar<uint32_t>(bytes,
                           persist::crc32(bytes.data(), bytes.size()));
    return bytes;
}

Expected<Unit>
writeTraceCache(const std::string &cache_path, const Trace &t,
                const IngestReport &report, uint32_t options_word,
                const FileStamp &source_stamp)
{
    // The columns go out as they are. Queues are numbered in
    // first-appearance order, which is the trace's own numbering
    // unless a sort or a filter moved its ids out of that order; only
    // then is the id column renumbered.
    const std::vector<uint32_t> order = t.queueIdsInOrder();
    std::vector<std::string> queue_order;
    std::vector<uint32_t> number(t.queueTable().size(), 0);
    bool renumber = false;
    for (uint32_t id : order) {
        renumber = renumber || id != queue_order.size();
        number[id] = static_cast<uint32_t>(queue_order.size());
        queue_order.push_back(t.queueTable()[id]);
    }
    ColumnsView columns = t.columns().view();
    std::vector<uint32_t> queue_id;
    if (renumber) {
        queue_id.reserve(t.size());
        for (uint32_t id : t.columns().queueId)
            queue_id.push_back(number[id]);
        columns.queueId = queue_id.data();
    }
    const std::string bytes =
        encodeQtcImage(columns, t.site(), t.machine(), queue_order,
                       report, options_word, source_stamp);

    // --trace-cache=DIR may name a directory that does not exist yet.
    const size_t slash = cache_path.find_last_of('/');
    if (slash != std::string::npos && slash > 0) {
        if (auto made =
                persist::ensureDirectory(cache_path.substr(0, slash));
            !made.ok())
            return made.error();
    }
    return persist::atomicWriteFile(cache_path, bytes);
}

QtcParseResult
parseQtcView(std::string_view bytes, bool verify_crc)
{
    if (reinterpret_cast<uintptr_t>(bytes.data()) % alignof(double) != 0)
        return parseMiss(CacheStatus::Corrupt, "misaligned buffer");
    if (bytes.size() < kHeaderBytes + kCrcBytes)
        return parseMiss(CacheStatus::Corrupt,
                         "truncated: " + std::to_string(bytes.size()) +
                             " bytes");
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return parseMiss(CacheStatus::Corrupt, "bad magic");

    // Verify the CRC before trusting any field beyond the magic.
    if (verify_crc) {
        uint32_t stored_crc = 0;
        std::memcpy(&stored_crc, bytes.data() + bytes.size() - kCrcBytes,
                    kCrcBytes);
        const uint32_t actual_crc =
            persist::crc32(bytes.data(), bytes.size() - kCrcBytes);
        if (stored_crc != actual_crc)
            return parseMiss(CacheStatus::Corrupt, "CRC mismatch");
    }

    Cursor cursor{bytes.data(), bytes.size() - kCrcBytes, sizeof(kMagic)};
    QtcParseResult out;
    QtcView &view = out.view;
    view.version = cursor.scalar<uint32_t>();
    view.options = cursor.scalar<uint32_t>();
    cursor.scalar<uint32_t>();  // reserved
    view.sourceSize = cursor.scalar<uint64_t>();
    view.sourceMtime = cursor.scalar<int64_t>();
    const auto job_count = cursor.scalar<uint64_t>();
    if (view.version != kTraceCacheVersion) {
        // The column layout is version-specific, so an old image can
        // only be reported stale, never parsed.
        return parseMiss(CacheStatus::Stale,
                         "format version " +
                             std::to_string(view.version) + " != " +
                             std::to_string(kTraceCacheVersion));
    }

    const size_t n = static_cast<size_t>(job_count);
    view.jobCount = n;
    view.submit = columnPtr<double>(cursor, n);
    view.wait = columnPtr<double>(cursor, n);
    view.run = columnPtr<double>(cursor, n);
    view.status = columnPtr<int64_t>(cursor, n);
    view.procs = columnPtr<int32_t>(cursor, n);
    view.queueId = columnPtr<uint32_t>(cursor, n);

    view.site = cursor.str();
    view.machine = cursor.str();
    const auto queue_count = cursor.scalar<uint32_t>();
    if (cursor.bad)
        return parseMiss(CacheStatus::Corrupt, "truncated columns");
    view.queueNames.reserve(queue_count);
    for (uint32_t i = 0; i < queue_count && !cursor.bad; ++i)
        view.queueNames.push_back(cursor.str());

    view.report.source = cursor.str();
    view.report.totalLines =
        static_cast<size_t>(cursor.scalar<uint64_t>());
    view.report.commentLines =
        static_cast<size_t>(cursor.scalar<uint64_t>());
    view.report.parsedRecords =
        static_cast<size_t>(cursor.scalar<uint64_t>());
    view.report.malformedLines =
        static_cast<size_t>(cursor.scalar<uint64_t>());
    view.report.filteredRecords =
        static_cast<size_t>(cursor.scalar<uint64_t>());
    const auto error_count = cursor.scalar<uint32_t>();
    if (cursor.bad || error_count > IngestReport::kMaxDetailedErrors)
        return parseMiss(CacheStatus::Corrupt,
                         "malformed report section");
    for (uint32_t i = 0; i < error_count && !cursor.bad; ++i) {
        ParseError error;
        error.file = cursor.str();
        error.line = static_cast<size_t>(cursor.scalar<uint64_t>());
        error.field = cursor.str();
        error.reason = cursor.str();
        view.report.errors.push_back(std::move(error));
    }
    if (cursor.bad || cursor.pos != cursor.size)
        return parseMiss(CacheStatus::Corrupt,
                         "malformed string section");
    for (size_t i = 0; i < n; ++i) {
        if (view.queueId[i] >= view.queueNames.size())
            return parseMiss(CacheStatus::Corrupt,
                             "queue id out of range");
    }
    out.status = CacheStatus::Hit;
    return out;
}

CacheReadResult
readTraceCache(const std::string &cache_path, uint32_t options_word,
               const FileStamp &source_stamp)
{
    if (!persist::pathExists(cache_path))
        return miss(CacheStatus::Missing, "no cache file");
    auto file = MappedFile::open(cache_path);
    if (!file.ok())
        return miss(CacheStatus::Corrupt, file.error().reason);

    QtcParseResult parsed = parseQtcView(file.value().view());
    if (parsed.status != CacheStatus::Hit)
        return miss(parsed.status, std::move(parsed.detail));
    const QtcView &view = parsed.view;
    if (view.options != options_word)
        return miss(CacheStatus::Stale, "parse options differ");
    if (view.sourceSize != source_stamp.sizeBytes ||
        view.sourceMtime != source_stamp.mtimeNs)
        return miss(CacheStatus::Stale, "source file changed");

    CacheReadResult out;
    out.report = view.report;
    out.trace.setSite(view.site);
    out.trace.setMachine(view.machine);
    TraceColumns columns;
    columns.append(view.columns());
    out.trace.append(std::move(columns), view.queueNames);
    // The loaders only write sorted, finite submit times.
    if (!out.trace.isSorted() || !out.trace.submitTimesFinite()) {
        return miss(CacheStatus::Corrupt,
                    "submit times unsorted or non-finite");
    }
    out.status = CacheStatus::Hit;
    return out;
}

} // namespace trace
} // namespace qdel
