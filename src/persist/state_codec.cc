/**
 * @file
 * Implementation of the binary state codec.
 */

#include "persist/state_codec.hh"

#include <cstring>

namespace qdel {
namespace persist {

namespace {

void
appendLe(std::string &out, uint64_t value, size_t bytes)
{
    char le[8];
    for (size_t i = 0; i < bytes; ++i)
        le[i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
    out.append(le, bytes);
}

uint64_t
readLe(std::string_view bytes, size_t offset, size_t count)
{
    uint64_t value = 0;
    for (size_t i = 0; i < count; ++i) {
        value |= static_cast<uint64_t>(
                     static_cast<uint8_t>(bytes[offset + i]))
                 << (8 * i);
    }
    return value;
}

} // namespace

void
StateWriter::u8(uint8_t value)
{
    appendLe(*out_, value, 1);
}

void
StateWriter::u32(uint32_t value)
{
    appendLe(*out_, value, 4);
}

void
StateWriter::u64(uint64_t value)
{
    appendLe(*out_, value, 8);
}

void
StateWriter::i64(int64_t value)
{
    appendLe(*out_, static_cast<uint64_t>(value), 8);
}

void
StateWriter::f64(double value)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    appendLe(*out_, bits, 8);
}

void
StateWriter::str(std::string_view value)
{
    u64(value.size());
    out_->append(value.data(), value.size());
}

StateReader::StateReader(std::string_view bytes, std::string label)
    : bytes_(bytes), label_(std::move(label))
{
}

bool
StateReader::need(size_t count, const char *what)
{
    if (error_)
        return false;
    if (remaining() >= count)
        return true;
    error_ = ParseError{label_, 0, what,
                        "truncated state: need " + std::to_string(count) +
                            " bytes at offset " + std::to_string(offset_) +
                            ", have " + std::to_string(remaining())};
    return false;
}

uint64_t
StateReader::fixed(size_t count, const char *what)
{
    if (!need(count, what))
        return 0;
    const uint64_t value = readLe(bytes_, offset_, count);
    offset_ += count;
    return value;
}

uint8_t
StateReader::u8()
{
    return static_cast<uint8_t>(fixed(1, "u8"));
}

uint32_t
StateReader::u32()
{
    return static_cast<uint32_t>(fixed(4, "u32"));
}

uint64_t
StateReader::u64()
{
    return fixed(8, "u64");
}

int64_t
StateReader::i64()
{
    return static_cast<int64_t>(fixed(8, "u64"));
}

double
StateReader::f64()
{
    const uint64_t bits = fixed(8, "u64");
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

std::string
StateReader::str()
{
    return std::string(strView());
}

std::string_view
StateReader::strView()
{
    const uint64_t length = u64();
    if (!need(length, "str"))
        return {};
    const std::string_view value = bytes_.substr(offset_, length);
    offset_ += length;
    return value;
}

std::vector<double>
StateReader::doubles()
{
    const uint64_t count = u64();
    // Divide instead of multiplying so a corrupt huge count cannot
    // overflow the size arithmetic.
    if (count > remaining() / 8) {
        fail(ParseError{label_, 0, "doubles",
                        "truncated state: " + std::to_string(count) +
                            " doubles declared, " +
                            std::to_string(remaining()) + " bytes remain"});
    }
    if (!ok())
        return {};
    std::vector<double> values(count);
    for (double &value : values)
        value = f64();
    return values;
}

void
StateReader::fail(ParseError error)
{
    if (!error_)
        error_ = std::move(error);
}

const ParseError &
StateReader::error() const
{
    if (!error_)
        panic("StateReader::error() called with nothing latched");
    return *error_;
}

Expected<Unit>
StateReader::expectEnd() const
{
    if (error_)
        return *error_;
    if (offset_ != bytes_.size()) {
        return ParseError{label_, 0, "end",
                          std::to_string(bytes_.size() - offset_) +
                              " trailing bytes after state payload"};
    }
    return Unit{};
}

void
writeStateHeader(StateWriter &writer, std::string_view tag,
                 uint32_t version)
{
    writer.str(tag);
    writer.u32(version);
}

void
readStateHeader(StateReader &reader, std::string_view tag,
                uint32_t version)
{
    const std::string_view found_tag = reader.strView();
    if (found_tag != tag) {
        reader.fail(ParseError{"", 0, "tag",
                               "state payload is for '" +
                                   std::string(found_tag) +
                                   "', this instance is '" +
                                   std::string(tag) + "'"});
    }
    const uint32_t found_version = reader.u32();
    if (found_version != version) {
        reader.fail(ParseError{"", 0, "version",
                               "state version " +
                                   std::to_string(found_version) +
                                   " unsupported (expected " +
                                   std::to_string(version) + ")"});
    }
}

} // namespace persist
} // namespace qdel
