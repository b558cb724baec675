/**
 * @file
 * Bit-exact binary codec for predictor, simulator and wire state.
 *
 * Fixed-width little-endian integers and raw IEEE-754 bit patterns
 * for doubles, so a value serialized and reloaded is *identical* —
 * including infinities, NaN payloads, and the exact rounding state of
 * running sums. This is what makes "a resumed run emits byte-identical
 * predictions" a provable property instead of an approximation.
 *
 * StateWriter is the one encoder: snapshots, WAL records and wire
 * frames all go through it, into its own buffer or appended to a
 * caller-owned one. StateReader is the one decode rule: every read
 * either succeeds or latches the first ParseError, after which reads
 * return zero or empty and never move. It never reads past the end of
 * its buffer, so a decoder reads straight through its fields and
 * checks ok() once; a truncated or corrupt payload (the checksums
 * should catch it first) surfaces as a ParseError, not undefined
 * behaviour.
 */

#ifndef QDEL_PERSIST_STATE_CODEC_HH
#define QDEL_PERSIST_STATE_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/expected.hh"

namespace qdel {
namespace persist {

/** Append-only binary encoder; see file comment. */
class StateWriter
{
  public:
    /** Encode into the writer's own buffer; see bytes()/take(). */
    StateWriter() : out_(&own_) {}

    /** Append to @p out, which must outlive the writer: lets a hot path
     *  reuse one buffer instead of allocating per message. */
    explicit StateWriter(std::string &out) : out_(&out) {}

    StateWriter(const StateWriter &) = delete;
    StateWriter &operator=(const StateWriter &) = delete;

    void u8(uint8_t value);
    void u32(uint32_t value);
    void u64(uint64_t value);
    void i64(int64_t value);
    /** Raw IEEE-754 bit pattern; round-trips inf/NaN exactly. */
    void f64(double value);
    /** Length-prefixed byte string. */
    void str(std::string_view value);

    /** Length-prefixed run of f64 values from any double range. */
    template <typename Container>
    void
    doubles(const Container &values)
    {
        u64(values.size());
        for (double value : values)
            f64(value);
    }

    const std::string &bytes() const { return *out_; }
    std::string take() { return std::move(*out_); }

  private:
    std::string own_;
    std::string *out_;
};

/** Bounds-checked, error-latching decoder; see file comment. */
class StateReader
{
  public:
    /**
     * @param bytes Buffer to decode; must outlive the reader.
     * @param label Name used in error messages (file path, "snapshot").
     */
    explicit StateReader(std::string_view bytes,
                         std::string label = "state");

    uint8_t u8();
    uint32_t u32();
    uint64_t u64();
    int64_t i64();
    double f64();
    std::string str();

    /** Zero-copy str(): a view into the underlying buffer, valid only
     *  while that buffer is. Lets hot decode paths assign into reused
     *  string storage instead of allocating per field. */
    std::string_view strView();

    std::vector<double> doubles();

    /** Latch a decoder's own check, unless an error is latched already:
     *  the first failure, read or check, is the one reported. */
    void fail(ParseError error);

    bool ok() const { return !error_; }

    /** The latched error; panics when nothing failed. */
    const ParseError &error() const;

    /** The latched error, else an error unless the whole buffer has
     *  been consumed. */
    Expected<Unit> expectEnd() const;

    size_t remaining() const { return bytes_.size() - offset_; }

  private:
    /** True when @p count more bytes can be read; else latches a
     *  truncation error naming @p what. */
    bool need(size_t count, const char *what);
    /** A little-endian integer of @p count bytes, or 0 after failure. */
    uint64_t fixed(size_t count, const char *what);

    std::string_view bytes_;
    std::string label_;
    size_t offset_ = 0;
    std::optional<ParseError> error_;
};

/**
 * Write the "<tag>, version" preamble every typed state payload starts
 * with (predictor snapshots, replay driver state).
 */
void writeStateHeader(StateWriter &writer, std::string_view tag,
                      uint32_t version);

/**
 * Read and verify a preamble written by writeStateHeader(), latching
 * any mismatch in @p reader: the tag must match exactly (a payload
 * saved by a different predictor type is not applicable) and the
 * version must be one this build understands.
 */
void readStateHeader(StateReader &reader, std::string_view tag,
                     uint32_t version);

} // namespace persist
} // namespace qdel

#endif // QDEL_PERSIST_STATE_CODEC_HH
