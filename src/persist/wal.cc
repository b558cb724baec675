/**
 * @file
 * Implementation of the write-ahead log.
 */

#include "persist/wal.hh"

#include <cstring>

#include "persist/state_codec.hh"

namespace qdel {
namespace persist {

namespace {

constexpr char kMagic[8] = {'Q', 'D', 'W', 'A', 'L', '0', '0', '1'};
constexpr size_t kHeaderSize = 24;  // magic + version + seq + crc
constexpr size_t kRecordFrame = 8;  // u32 len + u32 crc

/** The leading byte of every record payload, kept so segments that
 *  earlier builds wrote read unchanged; a reader ends the segment at
 *  any record that does not carry it. */
constexpr uint8_t kBlobType = 4;

} // namespace

Expected<WalWriter>
WalWriter::create(const std::string &path, uint64_t snapshot_seq)
{
    auto file = FileWriter::create(path);
    if (!file.ok())
        return file.error();

    std::string header(kMagic, sizeof(kMagic));
    StateWriter fields;
    fields.u32(kWalFormatVersion);
    fields.u64(snapshot_seq);
    header += fields.bytes();
    StateWriter crc_field;
    crc_field.u32(crc32(header.data(), header.size()));
    header += crc_field.bytes();

    WalWriter writer;
    writer.file_ = std::move(file).value();
    // The record chain is anchored at the header CRC, so records are
    // also bound to their own segment header.
    writer.chain_ = crc32(header.data(), header.size() - 4);
    if (auto ok = writer.file_.writeAll(header.data(), header.size());
        !ok.ok())
        return ok.error();
    writer.bytesWritten_ = header.size();
    if (auto ok = writer.file_.sync(); !ok.ok())
        return ok.error();
    return writer;
}

Expected<Unit>
WalWriter::append(std::string_view payload)
{
    if (!file_.isOpen())
        panic("WalWriter::append on a closed segment");
    if (payload.size() > kMaxWalBlobBytes)
        panic("WAL record exceeds kMaxWalBlobBytes");
    std::string record(1, static_cast<char>(kBlobType));
    record += payload;
    const uint32_t chained = crc32(record.data(), record.size(), chain_);
    StateWriter frame;
    frame.u32(static_cast<uint32_t>(record.size()));
    frame.u32(chained);
    std::string bytes = frame.take();
    bytes += record;
    auto ok = file_.writeAll(bytes.data(), bytes.size());
    if (ok.ok()) {
        chain_ = chained;
        bytesWritten_ += bytes.size();
    }
    return ok;
}

Expected<Unit>
WalWriter::sync()
{
    return file_.sync();
}

Expected<Unit>
WalWriter::close()
{
    return file_.close();
}

Expected<WalContents>
readWalFile(const std::string &path)
{
    auto bytes = readFileBytes(path);
    if (!bytes.ok())
        return bytes.error();
    const std::string &data = bytes.value();
    if (data.size() < kHeaderSize) {
        return ParseError{path, 0, "header",
                          "WAL file too small (" +
                              std::to_string(data.size()) + " bytes)"};
    }
    if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0)
        return ParseError{path, 0, "magic", "not a WAL file"};

    StateReader header(
        std::string_view(data).substr(sizeof(kMagic),
                                      kHeaderSize - sizeof(kMagic)),
        path);
    const uint32_t version = header.u32();
    const uint64_t snapshot_seq = header.u64();
    const uint32_t header_crc = header.u32();
    if (version != kWalFormatVersion) {
        return ParseError{path, 0, "version",
                          "WAL format version " + std::to_string(version) +
                              " unsupported (expected " +
                              std::to_string(kWalFormatVersion) + ")"};
    }
    if (crc32(data.data(), kHeaderSize - 4) != header_crc)
        return ParseError{path, 0, "headerCrc", "header checksum mismatch"};

    WalContents contents;
    contents.snapshotSeq = snapshot_seq;
    uint32_t chain = header_crc;
    size_t offset = kHeaderSize;
    while (offset < data.size()) {
        auto truncate = [&](const std::string &why) {
            contents.droppedTailBytes = data.size() - offset;
            contents.note = why + " at offset " + std::to_string(offset);
        };
        if (data.size() - offset < kRecordFrame) {
            truncate("torn record frame");
            break;
        }
        StateReader frame(
            std::string_view(data).substr(offset, kRecordFrame), path);
        const uint32_t length = frame.u32();
        const uint32_t chain_crc = frame.u32();
        if (length > 1 + kMaxWalBlobBytes) {
            truncate("implausible record length " +
                     std::to_string(length));
            break;
        }
        if (data.size() - offset - kRecordFrame < length) {
            truncate("torn record payload");
            break;
        }
        const std::string_view payload =
            std::string_view(data).substr(offset + kRecordFrame, length);
        if (crc32(payload.data(), payload.size(), chain) != chain_crc) {
            truncate("record checksum chain mismatch");
            break;
        }
        if (payload.empty() ||
            static_cast<uint8_t>(payload[0]) != kBlobType) {
            truncate("unparsable record payload");
            break;
        }
        contents.records.emplace_back(payload.substr(1));
        chain = chain_crc;
        offset += kRecordFrame + length;
    }
    return contents;
}

} // namespace persist
} // namespace qdel
