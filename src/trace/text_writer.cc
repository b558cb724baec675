/**
 * @file
 * Implementation of the buffered trace text writer.
 */

#include "trace/text_writer.hh"

#include <charconv>
#include <cmath>
#include <ostream>

namespace qdel {
namespace trace {

namespace {

/** Longest "%.0f" output: a sign and the 309 digits of DBL_MAX. */
constexpr size_t kMaxFixed0 = 310;
/** Longest "%.6g" output, e.g. "-1.79769e+308". */
constexpr size_t kMaxGeneral6 = 13;
/** Longest "%lld" output: LLONG_MIN. */
constexpr size_t kMaxInteger = 20;

} // namespace

TextWriter::TextWriter(std::ostream &out)
    : out_(out), buffer_(new char[kCapacity])
{
}

TextWriter::~TextWriter()
{
    flush();
}

void
TextWriter::fixed0(double v)
{
    char *p = room(kMaxFixed0);
    char *const end = p + kMaxFixed0;
    // to_chars(fixed, 0) alone prints the same bytes for every value,
    // but makes BM_SwfWrite take 2.3x as long, so a value below 2^52
    // (which may have a fraction) goes through an integer instead:
    // nearbyint rounds half to even, as printf does, and keeps the sign
    // of a zero.
    if (std::fabs(v) < 0x1p52) {
        const double rounded = std::nearbyint(v);
        if (std::signbit(rounded))
            *p++ = '-';
        p = std::to_chars(p, end,
                          static_cast<long long>(std::fabs(rounded)))
                .ptr;
    } else {
        // An integer already (or inf/nan): to_chars prints it exactly.
        p = std::to_chars(p, end, v, std::chars_format::fixed, 0).ptr;
    }
    used_ = static_cast<size_t>(p - buffer_.get());
}

void
TextWriter::general6(double v)
{
    char *p = room(kMaxGeneral6);
    p = std::to_chars(p, p + kMaxGeneral6, v, std::chars_format::general,
                      6)
            .ptr;
    used_ = static_cast<size_t>(p - buffer_.get());
}

void
TextWriter::integer(long long v)
{
    char *p = room(kMaxInteger);
    p = std::to_chars(p, p + kMaxInteger, v).ptr;
    used_ = static_cast<size_t>(p - buffer_.get());
}

void
TextWriter::flush()
{
    if (used_ == 0)
        return;
    out_.write(buffer_.get(), static_cast<std::streamsize>(used_));
    used_ = 0;
}

void
TextWriter::writeThrough(std::string_view s)
{
    out_.write(s.data(), static_cast<std::streamsize>(s.size()));
}

} // namespace trace
} // namespace qdel
