/**
 * @file
 * Tests for the bit-exact state codec, the typed state-header
 * preamble, the checksummed snapshot files, and the lenient-tail WAL
 * segments — the formats DESIGN.md section 11 documents.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/io.hh"
#include "persist/snapshot.hh"
#include "persist/state_codec.hh"
#include "persist/wal.hh"
#include "serve/wire.hh"

namespace qdel {
namespace persist {
namespace {

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "qdel_sw_" + name;
    std::filesystem::remove_all(dir);
    EXPECT_TRUE(ensureDirectory(dir).ok());
    return dir;
}

/** An 8-byte blob holding @p v: a 17-byte record on disk (frame 8 +
 *  type 1 + payload 8), the fixed size the framing tests count in. */
std::string
filler(double v)
{
    StateWriter writer;
    writer.f64(v);
    return writer.take();
}

/** Inverse of filler(). */
double
fillerValue(const std::string &blob)
{
    StateReader reader(blob);
    const double value = reader.f64();
    EXPECT_TRUE(reader.expectEnd().ok());
    return value;
}

std::string
hex(const std::string &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (unsigned char c : bytes) {
        out += digits[c >> 4];
        out += digits[c & 15];
    }
    return out;
}

TEST(StateCodec, RoundTripsEveryType)
{
    StateWriter writer;
    writer.u8(0xAB);
    writer.u32(0xDEADBEEFu);
    writer.u64(0x0123456789ABCDEFull);
    writer.i64(-42);
    writer.f64(3.141592653589793);
    writer.str("queue/name with spaces");
    writer.doubles(std::vector<double>{1.0, -2.5, 1e300});

    StateReader reader(writer.bytes(), "test");
    EXPECT_EQ(reader.u8(), 0xAB);
    EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
    EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(reader.i64(), -42);
    EXPECT_DOUBLE_EQ(reader.f64(), 3.141592653589793);
    EXPECT_EQ(reader.str(), "queue/name with spaces");
    EXPECT_EQ(reader.doubles(), (std::vector<double>{1.0, -2.5, 1e300}));
    EXPECT_TRUE(reader.expectEnd().ok());
}

TEST(StateCodec, RoundTripsNonFiniteAndSignedZero)
{
    // The codec's reason to exist: the exact IEEE-754 bit pattern
    // survives, including infinities, NaN payloads and -0.0.
    const double values[] = {
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -0.0,
        std::numeric_limits<double>::denorm_min(),
    };
    StateWriter writer;
    for (double value : values)
        writer.f64(value);
    StateReader reader(writer.bytes(), "test");
    for (double value : values) {
        const double got = reader.f64();
        ASSERT_TRUE(reader.ok());
        uint64_t want_bits = 0, got_bits = 0;
        std::memcpy(&want_bits, &value, sizeof value);
        std::memcpy(&got_bits, &got, sizeof got);
        EXPECT_EQ(got_bits, want_bits);
    }
}

TEST(StateCodec, TruncationIsAnErrorNotUb)
{
    StateWriter writer;
    writer.u64(7);
    for (size_t keep = 0; keep < writer.bytes().size(); ++keep) {
        StateReader reader(
            std::string_view(writer.bytes().data(), keep), "short");
        EXPECT_EQ(reader.u64(), 0u);
        ASSERT_FALSE(reader.ok());
        EXPECT_NE(reader.error().str().find("short"), std::string::npos);
    }
}

TEST(StateCodec, ExpectEndRejectsTrailingBytes)
{
    StateWriter writer;
    writer.u8(1);
    writer.u8(2);
    StateReader reader(writer.bytes(), "test");
    EXPECT_EQ(reader.u8(), 1);
    EXPECT_TRUE(reader.ok());
    EXPECT_FALSE(reader.expectEnd().ok());
    EXPECT_EQ(reader.remaining(), 1u);
}

TEST(StateCodec, StringLengthBeyondBufferIsAnError)
{
    StateWriter writer;
    writer.u64(1u << 20);  // claims a megabyte that is not there
    StateReader reader(writer.bytes(), "test");
    EXPECT_EQ(reader.str(), "");
    EXPECT_FALSE(reader.ok());
}

TEST(StateCodec, DoublesCountBeyondBufferIsAnError)
{
    StateWriter writer;
    writer.u64(std::numeric_limits<uint64_t>::max());  // overflow bait
    StateReader reader(writer.bytes(), "test");
    EXPECT_TRUE(reader.doubles().empty());
    EXPECT_FALSE(reader.ok());
}

TEST(StateCodec, FirstErrorLatchesAndLaterReadsStayPut)
{
    StateWriter writer;
    writer.u32(7);
    writer.u8(9);
    StateReader reader(writer.bytes(), "latch");
    EXPECT_EQ(reader.u32(), 7u);
    EXPECT_EQ(reader.u64(), 0u);  // 1 byte left: fails and latches
    ASSERT_FALSE(reader.ok());
    const std::string first = reader.error().str();
    EXPECT_EQ(first, "latch: u64: truncated state: need 8 bytes at "
                     "offset 4, have 1");
    // Later reads return zero or empty and never move, even the one
    // that would have fit; later checks do not override the first.
    EXPECT_EQ(reader.u8(), 0u);
    EXPECT_EQ(reader.str(), "");
    EXPECT_TRUE(reader.strView().empty());
    EXPECT_TRUE(reader.doubles().empty());
    EXPECT_EQ(reader.f64(), 0.0);
    EXPECT_EQ(reader.remaining(), 1u);
    reader.fail(ParseError{"", 0, "check", "a later check"});
    EXPECT_EQ(reader.error().str(), first);
    // expectEnd() reports the latched error before trailing bytes.
    auto end = reader.expectEnd();
    ASSERT_FALSE(end.ok());
    EXPECT_EQ(end.error().str(), first);
}

TEST(StateCodec, FailLatchesADecodersOwnCheck)
{
    StateWriter writer;
    writer.u8(5);
    writer.u8(6);
    StateReader reader(writer.bytes(), "test");
    EXPECT_EQ(reader.u8(), 5u);
    reader.fail(ParseError{"", 0, "kind", "unknown kind 5"});
    EXPECT_EQ(reader.u8(), 0u);  // latched: even a fitting read stops
    EXPECT_EQ(reader.remaining(), 1u);
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.error().str(), "kind: unknown kind 5");
}

TEST(StateCodec, WriterAppendsToACallerBuffer)
{
    std::string out = "prefix";
    {
        StateWriter writer(out);
        writer.u32(0x01020304u);
        writer.str("ab");
    }
    StateWriter owned;
    owned.u32(0x01020304u);
    owned.str("ab");
    EXPECT_EQ(out, "prefix" + owned.bytes());
}

TEST(StateHeader, RoundTripAndMismatches)
{
    StateWriter writer;
    writeStateHeader(writer, "bmbp", 3);
    {
        StateReader reader(writer.bytes(), "test");
        readStateHeader(reader, "bmbp", 3);
        EXPECT_TRUE(reader.expectEnd().ok());
    }
    {
        // A payload saved by another predictor type is not applicable.
        StateReader reader(writer.bytes(), "test");
        readStateHeader(reader, "lognormal", 3);
        ASSERT_FALSE(reader.ok());
        EXPECT_NE(reader.error().str().find("bmbp"), std::string::npos);
        EXPECT_NE(reader.error().str().find("lognormal"),
                  std::string::npos);
    }
    {
        StateReader reader(writer.bytes(), "test");
        readStateHeader(reader, "bmbp", 4);
        EXPECT_FALSE(reader.ok());
    }
}

TEST(Snapshot, RoundTrip)
{
    const std::string dir = freshDir("roundtrip");
    const std::string path = dir + "/snapshot-0000000001.qds";
    std::string payload = "opaque predictor state \x00\x01\x02";
    payload[23] = '\0';
    ASSERT_TRUE(writeSnapshotFile(path, payload).ok());
    auto read = readSnapshotFile(path);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), payload);
}

TEST(Snapshot, EmptyPayloadRoundTrips)
{
    const std::string dir = freshDir("empty");
    const std::string path = dir + "/s.qds";
    ASSERT_TRUE(writeSnapshotFile(path, "").ok());
    auto read = readSnapshotFile(path);
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(read.value().empty());
}

TEST(Snapshot, EveryBitFlipDetected)
{
    // Flip one bit anywhere — header or payload — and the read must
    // fail. This is the whole point of the double CRC.
    const std::string dir = freshDir("bitflip");
    const std::string path = dir + "/s.qds";
    ASSERT_TRUE(writeSnapshotFile(path, "payload-under-test").ok());
    auto clean = readFileBytes(path);
    ASSERT_TRUE(clean.ok());
    const std::string bytes = clean.value();
    for (size_t i = 0; i < bytes.size(); ++i) {
        std::string corrupt = bytes;
        corrupt[i] = static_cast<char>(corrupt[i] ^ 0x10);
        ASSERT_TRUE(atomicWriteFile(path, corrupt).ok());
        EXPECT_FALSE(readSnapshotFile(path).ok())
            << "bit flip at byte " << i << " went undetected";
    }
}

TEST(Snapshot, TruncationRejected)
{
    const std::string dir = freshDir("trunc");
    const std::string path = dir + "/s.qds";
    ASSERT_TRUE(writeSnapshotFile(path, "twelve bytes").ok());
    auto clean = readFileBytes(path);
    ASSERT_TRUE(clean.ok());
    for (size_t keep : {size_t(0), size_t(10), size_t(27),
                        clean.value().size() - 1}) {
        ASSERT_TRUE(
            atomicWriteFile(path, clean.value().substr(0, keep)).ok());
        EXPECT_FALSE(readSnapshotFile(path).ok()) << "kept " << keep;
    }
}

TEST(Snapshot, TrailingGarbageRejected)
{
    // Exact-size check: a snapshot with bytes after the payload is not
    // the file the writer produced.
    const std::string dir = freshDir("tail");
    const std::string path = dir + "/s.qds";
    ASSERT_TRUE(writeSnapshotFile(path, "payload").ok());
    auto clean = readFileBytes(path);
    ASSERT_TRUE(clean.ok());
    ASSERT_TRUE(atomicWriteFile(path, clean.value() + "x").ok());
    EXPECT_FALSE(readSnapshotFile(path).ok());
}

TEST(Snapshot, WrongMagicNamesTheCheck)
{
    const std::string dir = freshDir("magic");
    const std::string path = dir + "/s.qds";
    ASSERT_TRUE(writeSnapshotFile(path, "payload").ok());
    auto clean = readFileBytes(path);
    ASSERT_TRUE(clean.ok());
    std::string corrupt = clean.value();
    corrupt.replace(0, 8, "NOTSNAPS");
    ASSERT_TRUE(atomicWriteFile(path, corrupt).ok());
    auto read = readSnapshotFile(path);
    ASSERT_FALSE(read.ok());
    EXPECT_NE(read.error().str().find("magic"), std::string::npos);
}

TEST(Snapshot, MissingFileIsAnError)
{
    EXPECT_FALSE(
        readSnapshotFile(::testing::TempDir() + "qdel_sw_absent.qds")
            .ok());
}

TEST(Wal, RoundTrip)
{
    const std::string dir = freshDir("wal");
    const std::string path = dir + "/wal-0000000003.qdw";
    {
        auto writer = WalWriter::create(path, 3);
        ASSERT_TRUE(writer.ok());
        WalWriter wal = std::move(writer).value();
        ASSERT_TRUE(wal.append(filler(17.5)).ok());
        ASSERT_TRUE(wal.append(std::string()).ok());
        ASSERT_TRUE(wal.append("x").ok());
        ASSERT_TRUE(wal.append(filler(-0.0)).ok());
        ASSERT_TRUE(wal.sync().ok());
        ASSERT_TRUE(wal.close().ok());
    }
    auto contents = readWalFile(path);
    ASSERT_TRUE(contents.ok());
    const WalContents &wal = contents.value();
    EXPECT_EQ(wal.snapshotSeq, 3u);
    EXPECT_EQ(wal.droppedTailBytes, 0u);
    ASSERT_EQ(wal.records.size(), 4u);
    EXPECT_DOUBLE_EQ(fillerValue(wal.records[0]), 17.5);
    EXPECT_TRUE(wal.records[1].empty());
    EXPECT_EQ(wal.records[2], "x");
    EXPECT_TRUE(std::signbit(fillerValue(wal.records[3])));
}

TEST(Wal, EmptySegmentIsValid)
{
    const std::string dir = freshDir("walempty");
    const std::string path = dir + "/wal-0000000000.qdw";
    {
        auto writer = WalWriter::create(path, 0);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(std::move(writer).value().close().ok());
    }
    auto contents = readWalFile(path);
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents.value().snapshotSeq, 0u);
    EXPECT_TRUE(contents.value().records.empty());
}

TEST(Wal, TornTailYieldsValidPrefix)
{
    // The lenient-tail contract: truncate the file at every byte
    // boundary and the reader must return the longest record prefix
    // that verifies, accounting for the dropped tail.
    const std::string dir = freshDir("torn");
    const std::string path = dir + "/wal-0000000001.qdw";
    {
        auto writer = WalWriter::create(path, 1);
        ASSERT_TRUE(writer.ok());
        WalWriter wal = std::move(writer).value();
        for (int i = 0; i < 5; ++i) {
            ASSERT_TRUE(wal.append(filler(i)).ok());
        }
        ASSERT_TRUE(wal.close().ok());
    }
    auto clean = readFileBytes(path);
    ASSERT_TRUE(clean.ok());
    const std::string bytes = clean.value();
    const size_t header = 24;
    size_t last_count = 5;
    for (size_t keep = bytes.size(); keep >= header; --keep) {
        ASSERT_TRUE(
            atomicWriteFile(path, bytes.substr(0, keep)).ok());
        auto contents = readWalFile(path);
        ASSERT_TRUE(contents.ok()) << "kept " << keep;
        const WalContents &wal = contents.value();
        // Records only ever disappear whole as the tail shrinks.
        EXPECT_LE(wal.records.size(), last_count);
        last_count = wal.records.size();
        EXPECT_EQ(wal.records.size() * 17 + header + wal.droppedTailBytes,
                  keep);
        for (size_t i = 0; i < wal.records.size(); ++i)
            EXPECT_EQ(wal.records[i], filler(i));
        // A cut at a record boundary is indistinguishable from a
        // shorter segment; only a mid-record cut leaves a note.
        EXPECT_EQ(wal.droppedTailBytes > 0, !wal.note.empty());
    }
    EXPECT_EQ(last_count, 0u);
}

TEST(Wal, CorruptRecordEndsTheSegmentThere)
{
    const std::string dir = freshDir("corrupt");
    const std::string path = dir + "/wal-0000000001.qdw";
    {
        auto writer = WalWriter::create(path, 1);
        ASSERT_TRUE(writer.ok());
        WalWriter wal = std::move(writer).value();
        for (int i = 0; i < 4; ++i) {
            ASSERT_TRUE(wal.append(filler(i)).ok());
        }
        ASSERT_TRUE(wal.close().ok());
    }
    auto clean = readFileBytes(path);
    ASSERT_TRUE(clean.ok());
    std::string corrupt = clean.value();
    // Flip a bit inside record 2's payload (header 24 + two 17-byte
    // records + frame 8 puts us in the third record's payload).
    corrupt[24 + 2 * 17 + 8] ^= 0x01;
    ASSERT_TRUE(atomicWriteFile(path, corrupt).ok());
    auto contents = readWalFile(path);
    ASSERT_TRUE(contents.ok());
    const WalContents &wal = contents.value();
    ASSERT_EQ(wal.records.size(), 2u);  // the prefix before the damage
    EXPECT_GT(wal.droppedTailBytes, 0u);
    EXPECT_FALSE(wal.note.empty());
}

// A lying write() can drop a record cleanly from the middle of a
// segment (zero bytes persisted, success reported, later appends land
// contiguously). Every surviving record still has a self-consistent
// frame, so only the chained CRC — each record's checksum seeded by
// its predecessor's — can notice the hole. Replaying past it would
// reconstruct a non-prefix history, which breaks crash equivalence.
TEST(Wal, MissingMiddleRecordBreaksTheChain)
{
    const std::string dir = freshDir("hole");
    const std::string path = dir + "/wal-0000000001.qdw";
    {
        auto writer = WalWriter::create(path, 1);
        ASSERT_TRUE(writer.ok());
        WalWriter wal = std::move(writer).value();
        for (int i = 0; i < 4; ++i) {
            ASSERT_TRUE(wal.append(filler(i)).ok());
        }
        ASSERT_TRUE(wal.close().ok());
    }
    auto clean = readFileBytes(path);
    ASSERT_TRUE(clean.ok());
    // Excise record 2 (header 24, records are 17 bytes each) so
    // records 0, 1, 3 sit contiguously on disk.
    std::string holed = clean.value();
    holed.erase(24 + 2 * 17, 17);
    ASSERT_TRUE(atomicWriteFile(path, holed).ok());
    auto contents = readWalFile(path);
    ASSERT_TRUE(contents.ok());
    const WalContents &wal = contents.value();
    ASSERT_EQ(wal.records.size(), 2u);  // the true prefix, not 0,1,3
    EXPECT_EQ(wal.records[0], filler(0.0));
    EXPECT_EQ(wal.records[1], filler(1.0));
    EXPECT_EQ(wal.droppedTailBytes, 17u);  // record 3, now orphaned
    EXPECT_NE(wal.note.find("chain"), std::string::npos);
}

TEST(Wal, BadHeaderFailsTheWholeSegment)
{
    const std::string dir = freshDir("header");
    const std::string path = dir + "/wal-0000000001.qdw";
    {
        auto writer = WalWriter::create(path, 1);
        ASSERT_TRUE(writer.ok());
        WalWriter wal = std::move(writer).value();
        ASSERT_TRUE(wal.append(filler(1.0)).ok());
        ASSERT_TRUE(wal.close().ok());
    }
    auto clean = readFileBytes(path);
    ASSERT_TRUE(clean.ok());
    // Any damage inside the 24-byte header is unrecoverable.
    for (size_t i : {size_t(0), size_t(9), size_t(15), size_t(22)}) {
        std::string corrupt = clean.value();
        corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
        ASSERT_TRUE(atomicWriteFile(path, corrupt).ok());
        EXPECT_FALSE(readWalFile(path).ok()) << "header byte " << i;
    }
    // So does a file shorter than the header.
    ASSERT_TRUE(
        atomicWriteFile(path, clean.value().substr(0, 12)).ok());
    EXPECT_FALSE(readWalFile(path).ok());
}

TEST(Wal, BlobRecordsRoundTripAmongTypedRecords)
{
    const std::string dir = freshDir("blob");
    const std::string path = dir + "/wal-0000000002.qdw";
    // Payloads that exercise the framing: empty, embedded NULs, every
    // byte value, and payloads that *look* like a record of another
    // type (an f64, a leading type byte): the WAL frames them, it
    // never interprets them.
    std::string all_bytes;
    for (int b = 0; b < 256; ++b)
        all_bytes.push_back(static_cast<char>(b));
    const std::string looks_typed("\x01payload", 8);
    {
        auto writer = WalWriter::create(path, 2);
        ASSERT_TRUE(writer.ok());
        WalWriter wal = std::move(writer).value();
        ASSERT_TRUE(wal.append(std::string()).ok());
        ASSERT_TRUE(wal.append(filler(4.25)).ok());
        ASSERT_TRUE(wal.append(all_bytes).ok());
        ASSERT_TRUE(wal.append(looks_typed).ok());
        ASSERT_TRUE(wal.close().ok());
    }
    auto contents = readWalFile(path);
    ASSERT_TRUE(contents.ok());
    const WalContents &wal = contents.value();
    EXPECT_EQ(wal.droppedTailBytes, 0u);
    ASSERT_EQ(wal.records.size(), 4u);
    EXPECT_TRUE(wal.records[0].empty());
    EXPECT_DOUBLE_EQ(fillerValue(wal.records[1]), 4.25);
    EXPECT_EQ(wal.records[2], all_bytes);
    EXPECT_EQ(wal.records[3], looks_typed);
}

// A record that chains correctly but whose leading type byte is not
// the blob type (4) is not a record this format writes: it ends the
// segment there, with everything after it, like any other damage.
TEST(Wal, NonBlobTypeByteEndsTheSegmentThere)
{
    const std::string dir = freshDir("typebyte");
    const std::string path = dir + "/wal-0000000001.qdw";
    {
        auto writer = WalWriter::create(path, 1);
        ASSERT_TRUE(writer.ok());
        WalWriter wal = std::move(writer).value();
        ASSERT_TRUE(wal.append(filler(1.0)).ok());
        ASSERT_TRUE(wal.close().ok());
    }
    auto clean = readFileBytes(path);
    ASSERT_TRUE(clean.ok());
    const size_t valid = clean.value().size();
    ASSERT_EQ(valid, 24u + 17u);
    for (int type : {0x00, 0x01, 0x02, 0x03, 0x05, 0xFF}) {
        SCOPED_TRACE("type byte " + std::to_string(type));
        // Append two correctly chained records by hand: the foreign
        // one, then a well-formed blob that must not be reached.
        StateReader last(std::string_view(clean.value()).substr(24 + 4, 4));
        uint32_t chain = last.u32();
        ASSERT_TRUE(last.expectEnd().ok());
        std::string bytes = clean.value();
        for (const std::string &payload :
             {std::string(1, static_cast<char>(type)) + "abc",
              std::string("\x04ok", 3)}) {
            chain = crc32(payload.data(), payload.size(), chain);
            StateWriter frame;
            frame.u32(static_cast<uint32_t>(payload.size()));
            frame.u32(chain);
            bytes += frame.take() + payload;
        }
        ASSERT_TRUE(atomicWriteFile(path, bytes).ok());
        auto contents = readWalFile(path);
        ASSERT_TRUE(contents.ok());
        const WalContents &wal = contents.value();
        ASSERT_EQ(wal.records.size(), 1u);
        EXPECT_EQ(wal.records[0], filler(1.0));
        EXPECT_EQ(wal.droppedTailBytes, bytes.size() - valid);
        EXPECT_NE(wal.note.find("unparsable record payload"),
                  std::string::npos)
            << wal.note;
    }
}

// The on-disk bytes of a serve shard's WAL, pinned: a header for
// snapshot 7, then two blob records (an empty one and one holding an
// encodeEvent frame). Shards written by earlier builds must recover
// unchanged, so these bytes may only change with kWalFormatVersion.
TEST(Wal, BlobSegmentBytesAreGolden)
{
    const std::string dir = freshDir("golden");
    const std::string path = dir + "/wal-0000000007.qdw";
    serve::JobEvent event;
    event.kind = serve::EventKind::Start;
    event.jobId = 42;
    event.time = 1234.5;
    event.machine = "m1";
    event.queue = "q";
    event.procs = 16;
    event.clientId = "c";
    event.seq = 9;
    const std::string frame = serve::encodeEvent(event);
    {
        auto writer = WalWriter::create(path, 7);
        ASSERT_TRUE(writer.ok());
        WalWriter wal = std::move(writer).value();
        ASSERT_TRUE(wal.append(std::string()).ok());
        ASSERT_TRUE(wal.append(frame).ok());
        ASSERT_TRUE(wal.close().ok());
    }
    auto bytes = readFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(hex(bytes.value()),
              // header: magic, version 1, snapshot 7, header crc
              "514457414c303031" "01000000" "0700000000000000" "1273ae11"
              // record 0: length 1, chain crc, type 4, no payload
              "01000000" "aff4c726" "04"
              // record 1: length 62, chain crc, type 4, then the event:
              "3e000000" "351a7c21" "04"
              // kind Start, jobId 42, time 1234.5, procs 16,
              "02" "2a00000000000000" "00000000004a9340" "1000000000000000"
              // machine "m1", queue "q", clientId "c", seq 9
              "0200000000000000" "6d31" "0100000000000000" "71"
              "0100000000000000" "63" "0900000000000000");
    EXPECT_EQ(kWalFormatVersion, 1u);

    auto contents = readWalFile(path);
    ASSERT_TRUE(contents.ok());
    ASSERT_EQ(contents.value().records.size(), 2u);
    EXPECT_TRUE(contents.value().records[0].empty());
    EXPECT_EQ(contents.value().records[1], frame);
}

TEST(Wal, BlobAtTheSizeCapRoundTrips)
{
    const std::string dir = freshDir("blobcap");
    const std::string path = dir + "/wal-0000000000.qdw";
    const std::string big(kMaxWalBlobBytes, '\x5a');
    {
        auto writer = WalWriter::create(path, 0);
        ASSERT_TRUE(writer.ok());
        WalWriter wal = std::move(writer).value();
        ASSERT_TRUE(wal.append(big).ok());
        ASSERT_TRUE(wal.close().ok());
    }
    auto contents = readWalFile(path);
    ASSERT_TRUE(contents.ok());
    ASSERT_EQ(contents.value().records.size(), 1u);
    EXPECT_EQ(contents.value().records[0].size(),
              size_t(kMaxWalBlobBytes));
    EXPECT_EQ(contents.value().records[0], big);
}

TEST(Wal, TornBlobTailYieldsValidPrefix)
{
    // The lenient-tail contract must hold for variable-length records
    // too: cut a blob record anywhere and the reader keeps exactly the
    // records before it.
    const std::string dir = freshDir("blobtorn");
    const std::string path = dir + "/wal-0000000001.qdw";
    {
        auto writer = WalWriter::create(path, 1);
        ASSERT_TRUE(writer.ok());
        WalWriter wal = std::move(writer).value();
        ASSERT_TRUE(wal.append("first").ok());
        ASSERT_TRUE(wal.append("second-longer").ok());
        ASSERT_TRUE(wal.close().ok());
    }
    auto clean = readFileBytes(path);
    ASSERT_TRUE(clean.ok());
    const std::string bytes = clean.value();
    const size_t header = 24;
    const size_t first_record_end = header + 8 + 1 + 5;
    for (size_t keep = bytes.size() - 1; keep >= header; --keep) {
        ASSERT_TRUE(atomicWriteFile(path, bytes.substr(0, keep)).ok());
        auto contents = readWalFile(path);
        ASSERT_TRUE(contents.ok()) << "kept " << keep;
        const WalContents &wal = contents.value();
        if (keep >= first_record_end) {
            ASSERT_EQ(wal.records.size(), 1u) << "kept " << keep;
            EXPECT_EQ(wal.records[0], "first");
        } else {
            EXPECT_TRUE(wal.records.empty()) << "kept " << keep;
        }
    }
}

} // namespace
} // namespace persist
} // namespace qdel
