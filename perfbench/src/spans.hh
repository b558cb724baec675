/**
 * @file
 * The benchmark's own span recorder, used only in traced runs.
 *
 * A span is (name, start, end, parent, request id) around one call the
 * benchmark makes into a layer of qdel. Spans are kept in memory and
 * written out when the run ends; nothing in the program under test is
 * instrumented. A layer's self time is its span's duration minus the
 * part of that interval its child spans cover, plus time charged by
 * leaf calls too fine to record one by one (the timed predictor's
 * observe/refit/bound calls charge their enclosing span this way).
 *
 * With the recorder disabled (untraced runs) every entry point returns
 * after one relaxed load, so the end-to-end numbers pay nothing.
 */

#ifndef QDEL_PERFBENCH_SPANS_HH
#define QDEL_PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {
namespace spans {

/** Switch recording on or off (off at start). */
void setEnabled(bool on);
bool enabled();

/**
 * Record a span whose bounds were measured elsewhere (a pipelined
 * client closes a request span when its answer arrives, long after
 * the send). No-op when disabled.
 */
void record(const char *name, int64_t startNs, int64_t endNs,
            uint64_t parent, uint64_t requestId);

/** Charge @p ns of leaf-call time to the calling thread's open span. */
void chargeChild(int64_t ns);

/** RAII span on the calling thread; nests under the thread's open one. */
class Scope
{
  public:
    explicit Scope(const char *name, uint64_t requestId = 0);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    uint64_t id() const { return id_; }

  private:
    const char *name_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint64_t requestId_;
    int64_t startNs_ = 0;
    int64_t chargedNs_ = 0;
    Scope *outer_ = nullptr;

    friend void chargeChild(int64_t ns);
};

/** Per-name aggregate over every recorded span. */
struct LayerTime
{
    uint64_t count = 0;
    double totalSeconds = 0.0;
    double selfSeconds = 0.0;
};

/** Aggregate the recorded spans by name, with self times. */
std::map<std::string, LayerTime> layers();

/** Spans that did not fit the in-memory buffer. */
uint64_t dropped();

/** Write every recorded span as TSV to @p path; false on I/O error. */
bool write(const std::string &path);

} // namespace spans
} // namespace perfbench

#endif // QDEL_PERFBENCH_SPANS_HH
