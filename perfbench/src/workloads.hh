/**
 * @file
 * The benchmark's workloads. Each one sets itself up from the seed,
 * measures for options.seconds, checks its outputs into the report,
 * and records either the end-to-end metrics (untraced run) or the
 * per-layer metrics (traced run).
 *
 * Every workload reports the same end-to-end metric names, each
 * measuring that workload's own work (perfbench/README.md has the
 * details and the wall-clock figures each workload also prints):
 *
 *   setup_s           median of several complete set-ups in the run
 *   throughput_per_s  work per CPU-second: offline-replay, replayed
 *                     jobs x methods of parse + replay; durable-ingest,
 *                     durably acked events of the daemon; serve-query,
 *                     requests the daemon answered at saturation
 *   peak_rss_mb       VmHWM of the process doing the work (the replay
 *                     process, or the daemon)
 */

#ifndef QDEL_PERFBENCH_WORKLOADS_HH
#define QDEL_PERFBENCH_WORKLOADS_HH

#include "report.hh"

namespace perfbench {

void runOfflineReplay(const RunOptions &options, Report &report);
void runServeQuery(const RunOptions &options, Report &report);
void runDurableIngest(const RunOptions &options, Report &report);

/** Cores every workload leaves idle, for the kernel's network and disk
 *  work and the daemon's non-reactor threads. With every core busy,
 *  serve-query latencies moved by a fifth between runs on a 4-vCPU
 *  machine; with one core spare, by a tenth. */
constexpr unsigned kSpareCores = 1;

/** Worker threads for in-process work: the cores less the spare. */
inline unsigned
workerThreads(const RunOptions &options)
{
    return options.cores > kSpareCores ? options.cores - kSpareCores : 1;
}

/** Set-up repetitions of an untraced run (setup_s is their median). */
constexpr int kSetupRepeats = 5;

/** Tracing overhead in percent, from a cost (time per unit of work)
 *  measured untraced and traced in the same run. */
inline double
overheadPct(double untracedCost, double tracedCost)
{
    return untracedCost > 0 ? (tracedCost / untracedCost - 1.0) * 100.0 : 0.0;
}

} // namespace perfbench

#endif // QDEL_PERFBENCH_WORKLOADS_HH
