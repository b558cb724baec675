/**
 * @file
 * qdel_serve: the online bound-prediction daemon.
 *
 * Ingests job lifecycle events (submit/start/done) and answers "what
 * wait bound do I face right now?" queries over one TCP port speaking
 * both the length-prefixed binary framing and HTTP/JSON (including a
 * Prometheus /metrics endpoint). State is durable under --state-dir:
 * every event is WAL-logged before it is applied, shards checkpoint
 * on a count trigger, and a killed daemon resumes byte-identical.
 *
 * Offline drive mode (--drive) ingests a trace file through the exact
 * same durable path without a listener — the kill/resume CI sweeps use
 * it, with --resume consulting the per-shard processed counts so a
 * restart skips exactly the events that survived the crash.
 *
 * Flags:
 *   --port N             listen on port N (0 = pick ephemeral; omit
 *                        the flag entirely for drive-only runs)
 *   --bind ADDR          bind address (default 127.0.0.1)
 *   --max-conns N        connection slots; further concurrent clients
 *                        are shed with 503/Status::Shed (default 64)
 *   --reactor-threads N  epoll event-loop threads; 0 picks the
 *                        hardware concurrency (the default)
 *   --io-timeout MS      budget for finishing a partial request or
 *                        response before the connection is reaped
 *                        (default 5000)
 *   --idle-timeout MS    how long a connection may idle between
 *                        requests (default 30000)
 *   --slow-request-us N  log requests that took longer than N
 *                        microseconds to handle, rate-limited per
 *                        reactor loop (0 = off, the default)
 *   --max-pending N      shed Submit events once a shard holds N
 *                        pending jobs (0 = unlimited, the default)
 *   --retry-after S      Retry-After advertised on shed events (1)
 *   --port-file FILE     write the bound port for scripts
 *   --state-dir DIR      durable per-shard checkpoints + WALs
 *   --shards N           registry shards (default 8)
 *   --method NAME        predictor method (default bmbp)
 *   --quantile Q         primary quantile to bound, one of the published
 *                        grid points (default .95)
 *   --confidence C       confidence level (default .95)
 *   --epoch S            refit a key every S seconds of event time, as
 *                        qdel_predict --epoch (default 300; 0 refits
 *                        at every submit)
 *   --train-jobs N       a key's first N submits only warm up its
 *                        history and are not scored (default 100)
 *   --checkpoint-every N auto-checkpoint a shard every N events (1000)
 *   --keep-snapshots N   retained snapshot generations (default 2)
 *   --sync-every N       fsync a shard's WAL at the end of a reactor
 *                        batch once >= N of its records are unsynced;
 *                        event replies leave after that fsync (default
 *                        1: every ack is durable; 0 leaves syncing to
 *                        checkpoints)
 *   --drive FILE         ingest a trace (.swf/.txt/.qtc source formats
 *                        accepted by the trace loader) and exit unless
 *                        --port is also given
 *   --machine NAME       key machine label for driven events
 *   --resume             with --drive: skip already-applied events
 *   --digest             print the registry state digest on exit
 *   --dump-bounds FILE   write every entry's bound grid (sorted)
 *   --lenient            skip malformed trace lines in --drive
 *   --metrics-out/--events-out/--stats-every: see other tools
 */

#include <csignal>
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "trace/trace.hh"
#include "trace/trace_loader.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/obs_cli.hh"

#include <cinttypes>
#include <cstdio>

namespace {

using namespace qdel;

volatile std::sig_atomic_t g_shutdown = 0;

void
onSignal(int)
{
    g_shutdown = 1;
}

void
usage(std::ostream &out)
{
    out << "usage: qdel_serve [--port=N] [--max-conns=64] "
           "[--reactor-threads=0]\n"
           "                  [--io-timeout=5000]\n"
           "                  [--idle-timeout=30000] [--max-pending=0]\n"
           "                  [--slow-request-us=0]\n"
           "                  [--state-dir=DIR] [--shards=N]\n"
           "                  [--method=bmbp] [--quantile=.95] "
           "[--confidence=.95]\n"
           "                  [--epoch=300] [--train-jobs=100]\n"
           "                  [--checkpoint-every=1000] "
           "[--keep-snapshots=2] [--sync-every=1]\n"
           "                  [--drive=TRACE [--machine=NAME] [--resume]]\n"
           "                  [--digest] [--dump-bounds=FILE] "
           "[--port-file=FILE]\n"
           "run with --help for the full flag reference in the file "
           "header\n";
}

/** Deterministic text dump of every entry's published bounds. */
bool
dumpBounds(const serve::BoundRegistry &registry, const std::string &path)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        warn("dump-bounds: cannot open ", path);
        return false;
    }
    for (const auto &view : registry.enumerate()) {
        std::fprintf(out, "%s|%s|%s obs=%" PRIu64 " hist=%" PRIu64
                          " version=%" PRIu64 "\n",
                     view.machine.c_str(), view.queue.c_str(),
                     serve::procBucketLabel(view.bucket).c_str(),
                     view.snapshot.observations, view.snapshot.historySize,
                     view.snapshot.version);
        for (size_t i = 0; i < serve::kGridCount; ++i) {
            std::fprintf(out, "  q=%.4f upper=%.17g lower=%.17g\n",
                         serve::kGridQuantiles[i], view.snapshot.upper[i],
                         view.snapshot.lower[i]);
        }
    }
    std::fclose(out);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv,
                    {"resume", "digest", "lenient", "verbose", "help"});
    if (cliValue(cli.getBool("help", false))) {
        usage(std::cout);
        return 0;
    }
    if (reportCliErrors(cli))
        return 1;
    setVerboseLogging(cliValue(cli.getBool("verbose", false)));

    // Validate every knob up front, through the library validate()
    // hooks, so a bad flag is a clean error instead of a late panic.
    serve::ServiceConfig config;
    config.registry.shards =
        static_cast<size_t>(cliValue(cli.getInt("shards", 8)));
    config.registry.method = cli.getString("method", "bmbp");
    config.registry.quantile = cliValue(cli.getDouble("quantile", 0.95));
    config.registry.confidence =
        cliValue(cli.getDouble("confidence", 0.95));
    config.registry.epochSeconds = cliValue(cli.getDouble("epoch", 300.0));
    const long long train_jobs = cliValue(cli.getInt("train-jobs", 100));
    if (train_jobs < 0) {
        std::cerr << "error: --train-jobs: must be >= 0, got " << train_jobs
                  << "\n";
        return 1;
    }
    config.registry.trainJobs = static_cast<uint64_t>(train_jobs);
    config.stateDir = cli.getString("state-dir", "");
    const long long checkpoint_every =
        cliValue(cli.getInt("checkpoint-every", 1000));
    if (checkpoint_every < 1) {
        std::cerr << "error: --checkpoint-every: must be >= 1, got "
                  << checkpoint_every << " (checkpoints also happen at"
                  << " shutdown and on POST /checkpoint)\n";
        return 1;
    }
    config.checkpointEveryEvents = static_cast<size_t>(checkpoint_every);
    const long long keep_snapshots =
        cliValue(cli.getInt("keep-snapshots", 2));
    const long long sync_every = cliValue(cli.getInt("sync-every", 1));
    if (keep_snapshots < 1) {
        std::cerr << "error: --keep-snapshots: must be >= 1, got "
                  << keep_snapshots << "\n";
        return 1;
    }
    if (sync_every < 0) {
        std::cerr << "error: --sync-every: must be >= 0, got "
                  << sync_every << "\n";
        return 1;
    }
    config.keepSnapshots = static_cast<size_t>(keep_snapshots);
    config.syncEveryRecords = static_cast<size_t>(sync_every);
    const long long max_pending = cliValue(cli.getInt("max-pending", 0));
    if (max_pending < 0) {
        std::cerr << "error: --max-pending: must be >= 0, got "
                  << max_pending << "\n";
        return 1;
    }
    config.maxPendingPerShard = static_cast<uint64_t>(max_pending);
    const long long retry_after = cliValue(cli.getInt("retry-after", 1));
    if (retry_after < 1 || retry_after > 3600) {
        std::cerr << "error: --retry-after: must be in [1, 3600], got "
                  << retry_after << "\n";
        return 1;
    }
    config.shedRetryAfterSeconds = static_cast<uint32_t>(retry_after);
    if (auto valid = config.validate(); !valid.ok()) {
        std::cerr << "error: " << valid.error().str() << "\n";
        return 1;
    }

    serve::ServerOptions server_options;
    const bool serve_port = cli.has("port");
    server_options.port =
        static_cast<int>(cliValue(cli.getInt("port", 0)));
    server_options.bindAddress = cli.getString("bind", "127.0.0.1");
    const long long max_conns = cliValue(cli.getInt("max-conns", 64));
    const long long io_timeout = cliValue(cli.getInt("io-timeout", 5000));
    const long long idle_timeout =
        cliValue(cli.getInt("idle-timeout", 30000));
    if (max_conns < 1 || max_conns > 4096) {
        std::cerr << "error: --max-conns: must be in [1, 4096], got "
                  << max_conns << "\n";
        return 1;
    }
    if (io_timeout < 1 || idle_timeout < 1) {
        std::cerr << "error: --io-timeout/--idle-timeout: must be >= 1 ms"
                  << "\n";
        return 1;
    }
    const long long reactor_threads =
        cliValue(cli.getInt("reactor-threads", 0));
    if (reactor_threads < 0 || reactor_threads > 256) {
        std::cerr << "error: --reactor-threads: must be in [0, 256], got "
                  << reactor_threads << " (0 = hardware concurrency)\n";
        return 1;
    }
    const long long slow_request_us =
        cliValue(cli.getInt("slow-request-us", 0));
    if (slow_request_us < 0) {
        std::cerr << "error: --slow-request-us: must be >= 0, got "
                  << slow_request_us << " (0 disables the log)\n";
        return 1;
    }
    server_options.maxConnections = static_cast<size_t>(max_conns);
    server_options.reactorThreads = static_cast<size_t>(reactor_threads);
    server_options.ioTimeoutMs = static_cast<int>(io_timeout);
    server_options.idleTimeoutMs = static_cast<int>(idle_timeout);
    server_options.slowRequestUs = static_cast<int64_t>(slow_request_us);
    if (serve_port) {
        if (auto valid = server_options.validate(); !valid.ok()) {
            std::cerr << "error: " << valid.error().str() << "\n";
            return 1;
        }
    }

    const std::string drive_path = cli.getString("drive", "");
    const bool resume = cliValue(cli.getBool("resume", false));
    if (resume && drive_path.empty()) {
        std::cerr << "error: --resume requires --drive\n";
        return 1;
    }
    if (!serve_port && drive_path.empty()) {
        std::cerr << "error: nothing to do: give --port and/or --drive\n";
        usage(std::cerr);
        return 1;
    }

    ObsFlags obs_flags;
    if (!parseObsFlags(cli, &obs_flags))
        return 1;
    // A server's /metrics endpoint is part of its contract; collection
    // is always on for the daemon (benches measure the library path).
    obs::setEnabled(true);

    auto opened = serve::BoundService::open(config);
    if (!opened.ok()) {
        std::cerr << "error: " << opened.error().str() << "\n";
        return 1;
    }
    auto service = std::move(opened).value();
    for (size_t s = 0; s < service->recoveries().size(); ++s) {
        const auto &report = service->recoveries()[s];
        if (report.source != persist::RecoverySource::ColdStart ||
            report.walRecordsApplied > 0) {
            inform("shard ", s, ": recovered from ",
                   persist::recoverySourceName(report.source), ", ",
                   report.walRecordsApplied, " WAL records replayed");
        }
    }

    if (!drive_path.empty()) {
        trace::TraceLoadOptions load_options;
        load_options.mode = cliValue(cli.getBool("lenient", false))
                                ? trace::ParseMode::Lenient
                                : trace::ParseMode::Strict;
        auto loaded = trace::loadTrace(drive_path, load_options);
        if (!loaded.ok()) {
            std::cerr << "error: " << loaded.error().str() << "\n";
            return 1;
        }
        const std::string machine =
            cli.getString("machine", loaded.value().machine().empty()
                                         ? "local"
                                         : loaded.value().machine());
        const std::vector<trace::JobRecord> jobs(loaded.value().begin(),
                                                 loaded.value().end());
        const auto events = serve::eventsFromJobs(jobs, machine);

        // Resume fencing: the per-shard processed counts say exactly
        // how many of each shard's events survived the crash; skip
        // that prefix and the WAL continues as if never interrupted.
        std::vector<uint64_t> skip(service->shardCount(), 0);
        if (resume) {
            const auto stats = service->stats();
            skip = stats.processedPerShard;
        }
        uint64_t ingested = 0;
        uint64_t skipped = 0;
        for (const auto &event : events) {
            const size_t s = service->registry().shardForEvent(event);
            if (skip[s] > 0) {
                --skip[s];
                ++skipped;
                continue;
            }
            auto outcome = service->ingest(event);
            if (!outcome.ok()) {
                std::cerr << "error: ingest failed: "
                          << outcome.error().str() << "\n";
                return 2;
            }
            ++ingested;
        }
        inform("drive: ", ingested, " events ingested, ", skipped,
               " skipped as already applied");
        if (auto ok = service->checkpointAll(); !ok.ok()) {
            std::cerr << "error: final checkpoint: " << ok.error().str()
                      << "\n";
            return 2;
        }
    }

    if (serve_port) {
        auto server = serve::BoundServer::start(*service, server_options);
        if (!server.ok()) {
            std::cerr << "error: " << server.error().str() << "\n";
            return 1;
        }
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        const int port = server.value()->port();
        std::cout << "qdel_serve: listening on "
                  << server_options.bindAddress << ":" << port
                  << std::endl;
        const std::string port_file = cli.getString("port-file", "");
        if (!port_file.empty()) {
            std::FILE *out = std::fopen(port_file.c_str(), "w");
            if (out != nullptr) {
                std::fprintf(out, "%d\n", port);
                std::fclose(out);
            } else {
                warn("port-file: cannot open ", port_file);
            }
        }
        while (g_shutdown == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        inform("shutting down");
        server.value()->stop();
        if (auto ok = service->checkpointAll(); !ok.ok()) {
            std::cerr << "error: shutdown checkpoint: "
                      << ok.error().str() << "\n";
            return 2;
        }
    }

    const std::string dump_path = cli.getString("dump-bounds", "");
    if (!dump_path.empty() && !dumpBounds(service->registry(), dump_path))
        return 1;
    if (cliValue(cli.getBool("digest", false)))
        std::cout << "digest: " << service->digest() << "\n";

    writeObsOutputs(obs_flags);
    return 0;
}
