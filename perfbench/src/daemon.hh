/**
 * @file
 * Driving a qdel_serve process from outside: spawn it on an ephemeral
 * loopback port, talk to it over non-blocking binary and HTTP
 * connections, read its peak RSS, and stop it with SIGTERM so it
 * checkpoints and prints its final digest.
 */

#ifndef QDEL_PERFBENCH_DAEMON_HH
#define QDEL_PERFBENCH_DAEMON_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "report.hh"

namespace perfbench {

class Daemon
{
  public:
    /**
     * Start binDir/qdel_serve with @p args plus the port flags; its
     * output goes to workDir/@p logName. Null (and @p error set) when
     * the process does not come up within 30 s.
     */
    static std::unique_ptr<Daemon> start(const RunOptions &options,
                                         const std::vector<std::string> &args,
                                         const std::string &logName,
                                         std::string *error);

    /** Kills and reaps the process if stop() was not called. */
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int port() const { return port_; }
    int pid() const { return pid_; }

    /** VmHWM of the running daemon, MiB. */
    double peakRssMb() const { return perfbench::peakRssMb(pid_); }

    /**
     * SIGTERM, then wait (SIGKILL after 60 s). @return true on a clean
     * exit, with the daemon's output in @p log.
     */
    bool stop(std::string *log);

  private:
    Daemon() = default;

    int pid_ = -1;
    int port_ = 0;
    std::string logPath_;
};

/** Connect to the loopback port (blocking), then set TCP_NODELAY and
 *  O_NONBLOCK; -1 on failure. */
int connectLoopback(int port);

/**
 * A non-blocking connection speaking qdel's binary framing. The caller
 * appends request frames to out(), then pump()s until replies arrive;
 * nextFrame() pops complete reply payloads in order.
 */
class FrameConn
{
  public:
    explicit FrameConn(int fd);
    ~FrameConn();
    FrameConn(const FrameConn &) = delete;
    FrameConn &operator=(const FrameConn &) = delete;

    std::string &out() { return out_; }

    /** Write what the socket takes and read what it has; false on a
     *  socket error or a closed peer. */
    bool pump();

    /** Pop one complete reply payload (status byte first). */
    bool nextFrame(std::string_view *payload);

    /** Blocking request/reply for set-up and teardown calls. */
    bool call(const std::string &frame, std::string *payload);

  private:
    int fd_;
    std::string out_;
    size_t outPos_ = 0;
    std::string in_;
    size_t inPos_ = 0;
};

/**
 * A non-blocking keep-alive HTTP/1.1 client for GET requests, so a
 * periodic scrape never stalls the load generator's loop.
 */
class HttpConn
{
  public:
    explicit HttpConn(int fd);
    ~HttpConn();
    HttpConn(const HttpConn &) = delete;
    HttpConn &operator=(const HttpConn &) = delete;

    bool busy() const { return busy_; }

    /** Start GET @p path; the connection must not be busy. */
    void get(const std::string &path);

    /**
     * Advance the request. @return false on a socket error; sets
     * @p done (and fills status and body) when the reply is complete.
     */
    bool pump(bool *done, int *status, std::string *body);

    /** Blocking GET for set-up and teardown calls. */
    bool fetch(const std::string &path, std::string *body);

  private:
    int fd_;
    bool busy_ = false;
    std::string out_;
    size_t outPos_ = 0;
    std::string in_;
};

} // namespace perfbench

#endif // QDEL_PERFBENCH_DAEMON_HH
