/**
 * @file
 * Buffered text output for the trace writers (SWF and native): numbers
 * are formatted with std::to_chars straight into a 1 MiB buffer, which
 * goes to the stream with one ostream::write each time it fills. Each
 * number formatter writes the bytes snprintf writes for the printf
 * conversion it names, so the files match a printf-based writer byte
 * for byte.
 */

#ifndef QDEL_TRACE_TEXT_WRITER_HH
#define QDEL_TRACE_TEXT_WRITER_HH

#include <cstddef>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <string_view>

namespace qdel {
namespace trace {

/** See file comment. */
class TextWriter
{
  public:
    /** Bytes buffered before one ostream::write. */
    static constexpr size_t kCapacity = size_t{1} << 20;

    explicit TextWriter(std::ostream &out);
    /** Flushes. */
    ~TextWriter();

    TextWriter(const TextWriter &) = delete;
    TextWriter &operator=(const TextWriter &) = delete;

    /** printf "%.0f": round half to even, "-0" kept, "inf"/"nan". */
    void fixed0(double v);
    /** printf "%.6g". */
    void general6(double v);
    /** printf "%lld" (and "%d"). */
    void integer(long long v);

    /** The bytes of @p s. */
    void
    text(std::string_view s)
    {
        if (s.size() > kCapacity - used_) {
            flush();
            if (s.size() > kCapacity) {
                writeThrough(s);
                return;
            }
        }
        std::memcpy(buffer_.get() + used_, s.data(), s.size());
        used_ += s.size();
    }

    void
    put(char c)
    {
        if (used_ == kCapacity)
            flush();
        buffer_[used_++] = c;
    }

    /** Hand the buffered bytes to the stream; errors latch in its state. */
    void flush();

  private:
    /** Flush unless @p n more bytes fit; @return where they go. */
    char *
    room(size_t n)
    {
        if (n > kCapacity - used_)
            flush();
        return buffer_.get() + used_;
    }

    void writeThrough(std::string_view s);

    std::ostream &out_;
    std::unique_ptr<char[]> buffer_;
    size_t used_ = 0;
};

} // namespace trace
} // namespace qdel

#endif // QDEL_TRACE_TEXT_WRITER_HH
