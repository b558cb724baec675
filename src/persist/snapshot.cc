/**
 * @file
 * Implementation of the snapshot file format.
 */

#include "persist/snapshot.hh"

#include <cstring>

#include "persist/io.hh"
#include "persist/state_codec.hh"

namespace qdel {
namespace persist {

namespace {

constexpr char kMagic[8] = {'Q', 'D', 'S', 'N', 'A', 'P', '0', '1'};
constexpr size_t kHeaderSize = 28;

} // namespace

Expected<Unit>
writeSnapshotFile(const std::string &path, const std::string &payload)
{
    StateWriter header;
    std::string bytes(kMagic, sizeof(kMagic));
    header.u32(kSnapshotFormatVersion);
    header.u64(payload.size());
    header.u32(crc32(payload.data(), payload.size()));
    bytes += header.bytes();
    StateWriter trailer;
    trailer.u32(crc32(bytes.data(), bytes.size()));
    bytes += trailer.bytes();
    bytes += payload;
    return atomicWriteFile(path, bytes);
}

Expected<std::string>
readSnapshotFile(const std::string &path)
{
    auto bytes = readFileBytes(path);
    if (!bytes.ok())
        return bytes.error();
    const std::string &data = bytes.value();
    if (data.size() < kHeaderSize) {
        return ParseError{path, 0, "header",
                          "snapshot file too small (" +
                              std::to_string(data.size()) + " bytes)"};
    }
    if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0)
        return ParseError{path, 0, "magic", "not a snapshot file"};

    StateReader reader(
        std::string_view(data).substr(sizeof(kMagic),
                                      kHeaderSize - sizeof(kMagic)),
        path);
    const uint32_t version = reader.u32();
    const uint64_t payload_size = reader.u64();
    const uint32_t payload_crc = reader.u32();
    const uint32_t header_crc = reader.u32();

    if (version != kSnapshotFormatVersion) {
        return ParseError{path, 0, "version",
                          "snapshot format version " +
                              std::to_string(version) +
                              " unsupported (expected " +
                              std::to_string(kSnapshotFormatVersion) +
                              ")"};
    }
    if (crc32(data.data(), kHeaderSize - 4) != header_crc)
        return ParseError{path, 0, "headerCrc", "header checksum mismatch"};
    if (data.size() - kHeaderSize != payload_size) {
        return ParseError{path, 0, "payloadSize",
                          "payload size mismatch: header says " +
                              std::to_string(payload_size) + ", file has " +
                              std::to_string(data.size() - kHeaderSize)};
    }
    if (crc32(data.data() + kHeaderSize, payload_size) != payload_crc) {
        return ParseError{path, 0, "payloadCrc",
                          "payload checksum mismatch"};
    }
    return data.substr(kHeaderSize);
}

} // namespace persist
} // namespace qdel
