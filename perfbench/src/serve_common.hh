/**
 * @file
 * Pieces the two daemon workloads share: starting and stopping
 * qdel_serve with its connections, reply decoding, a closed-loop
 * pipelined client, the server.* layer metrics, the /debug/calibration
 * totals, and the in-process service drive that the daemon's final
 * digest is checked against.
 */

#ifndef QDEL_PERFBENCH_SERVE_COMMON_HH
#define QDEL_PERFBENCH_SERVE_COMMON_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "daemon.hh"
#include "prom.hh"
#include "report.hh"
#include "serve/bound_registry.hh"
#include "serve/wire.hh"

namespace perfbench {

/** Load-generator threads: the benchmark drives every connection from
 *  one thread. */
constexpr unsigned kGeneratorThreads = 1;

/** Reactor threads for the daemon, one connection each: the cores the
 *  generator and the spare core leave (at least one). */
unsigned reactorThreads(const RunOptions &options);

/** A running qdel_serve and the benchmark's connections to it. */
struct Server
{
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<FrameConn>> conns;  //!< One per reactor.
    std::unique_ptr<HttpConn> http;                 //!< /metrics, /debug.
};

/**
 * Start qdel_serve with the benchmark's flags (reactor threads, the
 * slow-request log) plus @p extraArgs, logging to workDir/@p logName,
 * and open one binary connection per reactor loop and one HTTP
 * connection. Throws on failure.
 */
Server startServer(const RunOptions &options,
                   const std::vector<std::string> &extraArgs,
                   const std::string &logName);

/** Close the connections and stop the daemon, checking it exits
 *  cleanly; its output lands in @p log. */
void stopServer(Server &server, Report &report, std::string *log);

/** Append one request frame to @p out. */
void appendEventFrame(std::string &out, const qdel::serve::JobEvent &event);
void appendQueryFrame(std::string &out, const qdel::serve::BoundQuery &query);

/** Decode an Event reply; false unless the status is Ok. */
bool decodeEventReply(std::string_view payload, bool *applied);

/** Decode a Query reply; false unless the status is Ok and it decodes. */
bool decodeQueryReply(std::string_view payload,
                      qdel::serve::BoundAnswer *answer);

/** Connect @p count binary connections; empty on failure. */
std::vector<std::unique_ptr<FrameConn>> connectFrames(int port, size_t count);

/**
 * Closed loop: connection c sends items 0, 1, ... of lists[c] in order
 * (encode(c, item, out) appends the item's frame), keeping at most
 * @p window unanswered per connection. Sending stops at @p stopNs
 * (0 = when every list is sent); outstanding replies are then drained.
 * onReply(c, item, sendNs, recvNs, payload) sees every reply in order.
 * @return false on a socket error or when draining takes over 60 s.
 */
bool runClosedLoop(
    std::vector<std::unique_ptr<FrameConn>> &conns,
    const std::vector<std::vector<uint32_t>> &lists, size_t window,
    int64_t stopNs,
    const std::function<void(size_t, uint32_t, std::string &)> &encode,
    const std::function<void(size_t, uint32_t, int64_t, int64_t,
                             std::string_view)> &onReply);

/**
 * The server.* and registry entry/publish layer metrics, from a
 * /metrics delta and the client's round trips (from actual send) over
 * the same phase.
 */
void serverLayers(MetricsDelta &delta, std::vector<double> rttUs,
                  Report &report);

/** Median wall time of BoundRegistry::calibrationReport() over five
 *  calls, the work every /metrics scrape does. */
double calibrationReportMs(const qdel::serve::BoundRegistry &registry);

/** Sums over the rows of GET /debug/calibration. */
struct CalibrationTotals
{
    uint64_t entries = 0;
    uint64_t scored = 0;
    uint64_t hits = 0;
    uint64_t failingEntries = 0;
};
bool parseCalibration(const std::string &json, CalibrationTotals *totals);

/** The "digest: X" line qdel_serve prints on exit; empty if absent. */
std::string digestFromLog(const std::string &log);

/**
 * Digest of an ephemeral in-process BoundService that ingested
 * @p events in order (the daemon's per-shard order).
 */
std::string referenceDigest(const std::vector<qdel::serve::JobEvent> &events);

} // namespace perfbench

#endif // QDEL_PERFBENCH_SERVE_COMMON_HH
