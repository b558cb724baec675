/**
 * @file
 * Append-only write-ahead log of opaque event records.
 *
 * A WAL segment records, in order, every event applied after the
 * snapshot it follows. Each record is an opaque payload whose schema
 * belongs to the subsystem that owns the checkpoint directory (a serve
 * shard writes its wire-encoded events); the WAL layer only frames and
 * checksums it. Replaying the records against the snapshot state
 * reproduces the state bit-for-bit when applying an event is
 * deterministic.
 *
 * On-disk layout (little-endian):
 *
 *   header: magic "QDWAL001" | u32 version | u64 snapshotSeq |
 *           u32 crc32(header so far)
 *   record: u32 payloadLen | u32 chainCrc | payload
 *   record payload: u8 type (= 4) | event bytes
 *
 * chainCrc is crc32(payload) seeded with the previous record's
 * chainCrc (the header CRC for the first record). Chaining is what
 * makes the valid prefix a true *prefix*: a per-record checksum alone
 * cannot detect a record that a lying write() dropped cleanly from the
 * middle of the segment — the records after the hole still verify
 * individually, and replaying them would reconstruct a history with a
 * gap. With the chain, the first record after any hole fails to
 * verify and ends the segment there.
 *
 * Reads are lenient about the tail: the first record whose length or
 * chain checksum does not verify, or whose type byte is not 4, ends
 * the segment, and everything before it is returned as the valid
 * prefix (with the dropped byte count, so recovery can log what a
 * torn write cost). A bad *header* fails the whole segment — there is
 * no prefix to salvage.
 */

#ifndef QDEL_PERSIST_WAL_HH
#define QDEL_PERSIST_WAL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "persist/io.hh"
#include "util/expected.hh"

namespace qdel {
namespace persist {

/** Bumped whenever the record layout changes incompatibly. */
constexpr uint32_t kWalFormatVersion = 1;

/**
 * Largest payload one record may carry. Frame lengths above this are
 * treated as corruption by the reader, so a torn length field cannot
 * make it wait on gigabytes of phantom payload.
 */
constexpr uint32_t kMaxWalBlobBytes = 1u << 20;

/** Appends records to one WAL segment; created truncating. */
class WalWriter
{
  public:
    /**
     * Create @p path (truncating) and write the segment header.
     * @param snapshot_seq Sequence number of the snapshot this
     *                     segment follows (0 = cold start).
     */
    static Expected<WalWriter> create(const std::string &path,
                                      uint64_t snapshot_seq);

    /** Append one record carrying @p payload (no implicit sync). */
    Expected<Unit> append(std::string_view payload);

    /** fsync the segment. */
    Expected<Unit> sync();

    /** Close the segment (no implicit sync). */
    Expected<Unit> close();

    bool isOpen() const { return file_.isOpen(); }

    /** Bytes written to this segment so far (header + records). */
    uint64_t bytesWritten() const { return bytesWritten_; }

  private:
    FileWriter file_;
    uint32_t chain_ = 0;  //!< Running chain CRC (see file comment).
    uint64_t bytesWritten_ = 0;
};

/** A parsed WAL segment: the valid record prefix plus tail accounting. */
struct WalContents
{
    uint64_t snapshotSeq = 0;
    std::vector<std::string> records;  //!< Payloads, in order.
    size_t droppedTailBytes = 0;  //!< Bytes after the valid prefix.
    std::string note;             //!< Why the tail was dropped, if it was.
};

/** Parse @p path leniently; errors only for a missing/bad header. */
Expected<WalContents> readWalFile(const std::string &path);

} // namespace persist
} // namespace qdel

#endif // QDEL_PERSIST_WAL_HH
