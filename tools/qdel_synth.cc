/**
 * @file
 * qdel-synth: materialize the synthetic Table 1 suite (or single
 * queues) as trace files on disk, in native or Standard Workload
 * Format — useful for feeding other tools, plotting, or inspecting
 * what the reproduction actually evaluates on.
 *
 * Usage:
 *   qdel_synth --out=DIR [--format=native|swf] [--seed=1]
 *              [--site=S [--queue=Q]]    (default: the whole suite;
 *                          a site alone: its catalog queues)
 *              [--verify]  re-load each written file (strict) and
 *                          check the record count round-trips
 *              [--trace-cache[=DIR]]  also warm a binary ".qtc" cache
 *                          for each written trace, so downstream runs
 *                          with --trace-cache start hot
 *              [--metrics-out=F --events-out=F]  dump observability
 *                          output on exit (see qdel_predict)
 *
 * Out-of-core generation (O(shard) memory, any trace size):
 *   qdel_synth --out=DIR --stream-out [--format=qtc|swf]
 *              [--qtc-shard-size=2000000] [--jobs=N] ...
 *
 * --stream-out drives the StreamingSynthesizer job-by-job into either
 * a sharded .qtc set (one "<site>_<queue>.qtcs" manifest per profile;
 * the replay side streams it back with StreamingTraceReader) or a
 * buffered SWF file, never materializing a Trace. --jobs overrides
 * each selected profile's job count, which is how the billion-job
 * benchmark inputs are made.
 */

#include <filesystem>
#include <fstream>
#include <iostream>

#include "util/obs_cli.hh"
#include "trace/native_format.hh"
#include "trace/qtc_stream.hh"
#include "trace/swf_format.hh"
#include "trace/trace_loader.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "workload/site_catalog.hh"
#include "workload/stream_synth.hh"
#include "workload/synthesizer.hh"

namespace {

using namespace qdel;

/**
 * Stream one profile to a sharded .qtc set. @return the total job
 * count, or 0 with a message on stderr (streams are never empty).
 */
size_t
streamQtc(const workload::QueueProfile &profile,
          workload::StreamSynthOptions synth_options,
          const std::string &out_dir, size_t shard_size, bool verify)
{
    trace::ShardWriterOptions writer_options;
    writer_options.directory = out_dir;
    writer_options.baseName =
        std::string(profile.site) + "_" + profile.queue;
    writer_options.shardSize = shard_size;
    writer_options.site = profile.site;
    writer_options.machine = profile.display;
    trace::ShardedTraceWriter writer(writer_options);

    workload::StreamingSynthesizer synth(profile, synth_options);
    trace::JobRecord job;
    while (synth.next(&job)) {
        writer.add(job.submitTime, job.waitSeconds, job.runSeconds,
                   job.status, job.procs, job.queue);
        if (!writer.err().ok()) {
            std::cerr << "error: " << writer.err().error().str() << "\n";
            return 0;
        }
    }
    const auto finished = writer.finish();
    if (!finished.ok()) {
        std::cerr << "error: " << finished.error().str() << "\n";
        return 0;
    }
    if (verify) {
        // Re-stream the shard set with CRC checking on: every shard is
        // re-read and checksummed, and the job count must round-trip.
        auto reader = trace::StreamingTraceReader::open(
            writer.manifestPath());
        if (!reader.ok()) {
            std::cerr << "error: verify failed: "
                      << reader.error().str() << "\n";
            return 0;
        }
        size_t seen = 0;
        trace::ColumnBatch batch;
        for (;;) {
            auto more = reader.value().next(&batch);
            if (!more.ok()) {
                std::cerr << "error: verify failed: "
                          << more.error().str() << "\n";
                return 0;
            }
            if (!more.value())
                break;
            seen += batch.size;
        }
        if (seen != writer.totalJobs()) {
            std::cerr << "error: verify failed: "
                      << writer.manifestPath() << " round-tripped "
                      << seen << " of " << writer.totalJobs()
                      << " jobs\n";
            return 0;
        }
        inform("verified ", writer.manifestPath(), ": ", seen,
               " jobs, ", writer.shardCount(), " shards, CRC ok");
    }
    std::cout << "wrote " << writer.manifestPath() << " ("
              << writer.totalJobs() << " jobs, " << writer.shardCount()
              << " shards)\n";
    return writer.totalJobs();
}

/**
 * Stream one profile to a buffered SWF file: headers up front (the
 * queue table is known before the first job — one queue per profile),
 * then one line per job through trace::SwfWriter.
 */
size_t
streamSwf(const workload::QueueProfile &profile,
          workload::StreamSynthOptions synth_options,
          const std::string &path, bool verify)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "error: cannot open '" << path
                  << "' for writing\n";
        return 0;
    }
    workload::StreamingSynthesizer synth(profile, synth_options);
    trace::SwfWriter writer(out, profile.display, profile.site,
                            {profile.queue});
    trace::JobRecord job;
    while (synth.next(&job))
        writer.write(job, 0);
    writer.flush();
    out.flush();
    if (!out) {
        std::cerr << "error: write failed for '" << path << "'\n";
        return 0;
    }
    const size_t total = synth.produced();
    if (verify) {
        trace::IngestReport report;
        auto reloaded = trace::loadSwfTrace(path, {}, &report);
        if (!reloaded.ok()) {
            std::cerr << "error: verify failed: "
                      << reloaded.error().str() << "\n";
            return 0;
        }
        if (reloaded.value().size() != total) {
            std::cerr << "error: verify failed: " << path
                      << " round-tripped " << reloaded.value().size()
                      << " of " << total << " jobs ("
                      << report.summary() << ")\n";
            return 0;
        }
        inform("verified ", path, ": ", report.summary());
    }
    std::cout << "wrote " << path << " (" << total << " jobs)\n";
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qdel;
    CommandLine cli(argc, argv,
                    {"verify", "trace-cache", "stream-out", "help"});
    if (cliValue(cli.getBool("help", false))) {
        std::cout << "usage: qdel_synth --out=DIR "
                     "[--format=native|swf] [--seed=1] "
                     "[--site=S --queue=Q] [--verify] "
                     "[--trace-cache[=DIR]]\n"
                     "       qdel_synth --out=DIR --stream-out "
                     "[--format=qtc|swf] [--qtc-shard-size=2000000] "
                     "[--jobs=N] ...\n"
                     "  --verify  re-load each written trace (strict "
                     "mode) and check it round-trips\n"
                     "  --trace-cache[=DIR]  warm a binary \".qtc\" "
                     "cache for each written trace\n"
                     "  --stream-out  generate out-of-core: jobs go "
                     "straight to disk in O(shard) memory\n"
                     "  --qtc-shard-size=N  jobs per .qtc shard "
                     "(stream-out qtc format)\n"
                     "  --jobs=N  override each profile's job count "
                     "(stream-out only)\n"
                     "  --metrics-out=FILE  dump metrics on exit "
                     "(Prometheus text / JSON)\n"
                     "  --events-out=FILE   dump the event trace on "
                     "exit\n";
        return 0;
    }
    if (reportCliErrors(cli))
        return 1;
    ObsFlags obs_flags;
    if (!parseObsFlags(cli, &obs_flags))
        return 1;
    const std::string out_dir = cli.getString("out", "");
    if (out_dir.empty()) {
        std::cerr << "usage: qdel_synth --out=DIR "
                     "[--format=native|swf] [--seed=1] "
                     "[--site=S --queue=Q] [--verify] "
                     "[--stream-out [--format=qtc|swf] "
                     "[--qtc-shard-size=N] [--jobs=N]]\n";
        return 1;
    }
    const bool stream_out = cliValue(cli.getBool("stream-out", false));
    const std::string format =
        cli.getString("format", stream_out ? "qtc" : "native");
    if (stream_out) {
        if (format != "qtc" && format != "swf") {
            std::cerr << "error: --stream-out supports --format=qtc or "
                         "swf, got '" << format << "'\n";
            return 1;
        }
    } else if (format != "native" && format != "swf") {
        std::cerr << "error: --format must be 'native' or 'swf', got '"
                  << format << "' (qtc requires --stream-out)\n";
        return 1;
    }
    const long long shard_size_arg =
        cliValue(cli.getInt("qtc-shard-size", 2'000'000));
    if (shard_size_arg <= 0) {
        std::cerr << "error: --qtc-shard-size must be positive\n";
        return 1;
    }
    const long long jobs_arg = cliValue(cli.getInt("jobs", 0));
    // An explicit --jobs 0 would silently fall back to the profile's
    // own job count (0 is the no-override sentinel); reject it.
    if (jobs_arg < 0 || (cli.has("jobs") && jobs_arg == 0)) {
        std::cerr << "error: --jobs must be positive\n";
        return 1;
    }
    if (!stream_out && (cli.has("jobs") || cli.has("qtc-shard-size"))) {
        std::cerr << "error: --jobs and --qtc-shard-size require "
                     "--stream-out\n";
        return 1;
    }
    const auto seed = static_cast<uint64_t>(cliValue(cli.getInt("seed", 1)));
    const bool verify = cliValue(cli.getBool("verify", false));

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
        std::cerr << "error: cannot create output directory '" << out_dir
                  << "': " << ec.message() << "\n";
        return 1;
    }

    // The whole catalog, a --site's queues, or one --site --queue.
    const std::string site = cli.getString("site", "");
    const std::string queue = cli.getString("queue", "");
    std::vector<const workload::QueueProfile *> selection;
    for (const auto &profile : workload::siteCatalog()) {
        if ((!cli.has("site") && !cli.has("queue")) ||
            (site == profile.site &&
             (!cli.has("queue") || queue == profile.queue)))
            selection.push_back(&profile);
    }
    if (selection.empty()) {
        std::cerr << "error: "
                  << workload::lookupProfile(site, queue).error().str()
                  << "\n";
        return 1;
    }

    if (stream_out) {
        size_t total_jobs = 0;
        for (const auto *profile : selection) {
            workload::StreamSynthOptions synth_options;
            synth_options.baseSeed = seed;
            synth_options.jobCountOverride =
                static_cast<size_t>(jobs_arg);
            const size_t written =
                format == "qtc"
                    ? streamQtc(*profile, synth_options, out_dir,
                                static_cast<size_t>(shard_size_arg),
                                verify)
                    : streamSwf(*profile, synth_options,
                                out_dir + "/" +
                                    std::string(profile->site) + "_" +
                                    profile->queue + ".swf",
                                verify);
            if (written == 0)
                return 1;
            total_jobs += written;
        }
        std::cout << "total: " << selection.size() << " traces, "
                  << total_jobs << " jobs (seed " << seed
                  << ", streamed)\n";
        writeObsOutputs(obs_flags);
        return 0;
    }

    size_t total_jobs = 0;
    for (const auto *profile : selection) {
        auto trace = workload::synthesizeTrace(*profile, seed);
        total_jobs += trace.size();
        const std::string name = std::string(profile->site) + "_" +
                                 profile->queue + "." +
                                 (format == "swf" ? "swf" : "txt");
        const std::string path = out_dir + "/" + name;
        const auto saved = format == "swf"
                               ? trace::saveSwfTrace(trace, path)
                               : trace::saveNativeTrace(trace, path);
        if (!saved.ok()) {
            std::cerr << "error: " << saved.error().str() << "\n";
            return 1;
        }
        if (cli.has("trace-cache")) {
            // Re-load through the caching loader: the text parse runs
            // once here and leaves a fresh ".qtc" behind, so every
            // downstream --trace-cache consumer starts hot.
            trace::TraceLoadOptions cache_options;
            cache_options.cache = true;
            cache_options.cacheDir = cli.getString("trace-cache", "");
            auto warmed = trace::loadTrace(path, cache_options);
            if (!warmed.ok()) {
                std::cerr << "error: cache warm-up failed: "
                          << warmed.error().str() << "\n";
                return 1;
            }
        }
        if (verify) {
            trace::IngestReport report;
            auto reloaded =
                format == "swf"
                    ? trace::loadSwfTrace(path, {}, &report)
                    : trace::loadNativeTrace(path, {}, &report);
            if (!reloaded.ok()) {
                std::cerr << "error: verify failed: "
                          << reloaded.error().str() << "\n";
                return 1;
            }
            // SWF export may drop missing-wait records on re-load (the
            // default import policy), but synthesized traces always
            // carry waits, so the counts must match exactly.
            if (reloaded.value().size() != trace.size()) {
                std::cerr << "error: verify failed: " << path
                          << " round-tripped " << reloaded.value().size()
                          << " of " << trace.size() << " jobs ("
                          << report.summary() << ")\n";
                return 1;
            }
            inform("verified ", path, ": ", report.summary());
        }
        std::cout << "wrote " << path << " (" << trace.size()
                  << " jobs)\n";
    }
    std::cout << "total: " << selection.size() << " traces, "
              << total_jobs << " jobs (seed " << seed << ")\n";
    writeObsOutputs(obs_flags);
    return 0;
}
