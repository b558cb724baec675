/**
 * @file
 * The catalog of machine/queue profiles reproducing the paper's
 * Table 1 (job submittal traces from 7 production HPC systems,
 * 1.26 million jobs over 9 years).
 *
 * The original scheduler logs are not publicly redistributable, so the
 * catalog records, for every one of the 39 machine/queue rows, the
 * published summary statistics (job count, mean / median / standard
 * deviation of queuing delay, trace date span) together with the
 * generative knobs the synthesizer uses to produce statistically
 * faithful stand-in traces: lag-1 autocorrelation, bimodality
 * ("backfill mode" vs "congestion mode") severity, nonstationarity
 * (regime-walk) strength, processor-count mix across the paper's four
 * Table-5 bins, and per-bin delay factors.
 *
 * The generative knobs are set from the *published evidence*:
 *  - queues where the paper's log-normal baseline was correct even
 *    without history trimming are modeled as near-stationary unimodal
 *    log-normal series;
 *  - queues where only the trimmed log-normal was correct get strong
 *    regime nonstationarity (the failure trimming repairs);
 *  - queues where both log-normal variants failed get strong backfill
 *    bimodality (a distribution-shape failure trimming cannot repair);
 *  - lanl/short carries the terminal delay burst the paper reports
 *    (8% of jobs at the end of the log with unusually long delays);
 *  - sdsc datastar/normal carries the June-2004 window in which larger
 *    jobs were favored (paper Figure 2);
 *  - the processor mixes are chosen so exactly the Table-5 cells the
 *    paper reports have >= 1000 jobs and the "-" cells have fewer.
 */

#ifndef QDEL_WORKLOAD_SITE_CATALOG_HH
#define QDEL_WORKLOAD_SITE_CATALOG_HH

#include <string>
#include <vector>

#include "util/expected.hh"

namespace qdel {
namespace workload {

/** How strongly a queue's delay distribution departs from log-normal. */
enum class Bimodality
{
    None,    //!< Single log-normal component.
    Mild,    //!< 35% of jobs in a fast "backfill" mode.
    Strong,  //!< 60% of jobs in the fast mode (short-median queues).
};

/** Generative description of one machine/queue row of Table 1. */
struct QueueProfile
{
    const char *site;     //!< Table 3 machine label ("datastar", "lanl"...).
    const char *display;  //!< Table 1 site/machine label ("SDSC/Datastar").
    const char *queue;    //!< Queue name as logged.

    int startMonth, startYear;  //!< Trace start (month 1-12, 4-digit year).
    int endMonth, endYear;      //!< Last month (inclusive; profileSpan()).

    long long jobCount;    //!< Number of records in the log.
    double meanDelay;      //!< Published mean queuing delay (seconds).
    double medianDelay;    //!< Published median queuing delay (seconds).
    double stdDelay;       //!< Published sample standard deviation.

    double rho;            //!< Target lag-1 autocorrelation of delays.
    Bimodality bimodality; //!< Distribution-shape class (see above).
    int regimeCount;       //!< Number of stationary segments.
    double regimeSpread;   //!< Std-dev of the regime random-walk steps
                           //!< (log-space delay offsets).
    double trendRange;     //!< Log-space delay growth from trace start
                           //!< to trace end (machines get busier over
                           //!< their lifetime; full-history parametric
                           //!< fits lag behind this trend).

    double procMix[4];        //!< Job fraction per Table-5 bin.
    double procDelayFactor[4];//!< Congestion-mode delay scale per bin.

    bool inTable3;       //!< Row appears in the paper's Tables 3 and 4.
    bool inProcTables;   //!< Row appears in the paper's Tables 5-7.
    bool terminalBurst;  //!< lanl/short end-of-log delay surge.
    bool figure2Window;  //!< datastar/normal June-2004 large-job favor.
};

/** All 39 catalog rows, in Table 1 order. */
const std::vector<QueueProfile> &siteCatalog();

/**
 * Look up a profile by site and queue name. The recoverable form for
 * user-supplied names (tool flags, config files); the error message
 * lists the known site names.
 */
Expected<const QueueProfile *> lookupProfile(const std::string &site,
                                             const std::string &queue);

/**
 * Look up a profile by a site/queue pair the caller knows is in the
 * catalog (the bench/test tables); panics when absent, since a miss
 * there is a programmer error. User input goes through lookupProfile().
 */
const QueueProfile &findProfile(const std::string &site,
                                const std::string &queue);

/** Rows with inTable3 set (the 32 rows of Tables 3 and 4). */
std::vector<const QueueProfile *> table3Profiles();

/** Rows with inProcTables set (the rows of Tables 5-7). */
std::vector<const QueueProfile *> procTableProfiles();

/**
 * UNIX timestamp (UTC) of 00:00 on the first day of @p month in
 * @p year. Used to anchor trace spans and the figure/table windows.
 */
double monthStartUnix(int year, int month);

/** UNIX timestamp of 00:00 UTC on the given civil date. */
double dateUnix(int year, int month, int day);

/** A half-open interval [begin, end) of UNIX time. */
struct TimeSpan
{
    double begin = 0.0;
    double end = 0.0;
};

/**
 * The span a profile's synthesized trace covers: from the start of its
 * first month to the start of the month after its last one (the
 * catalog stores the last month inclusively).
 */
TimeSpan profileSpan(const QueueProfile &profile);

} // namespace workload
} // namespace qdel

#endif // QDEL_WORKLOAD_SITE_CATALOG_HH
