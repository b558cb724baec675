/**
 * @file
 * The embedded Table 1 catalog. Column values (job counts, means,
 * medians, standard deviations, date spans) are transcribed from the
 * paper; the generative knobs encode the per-queue evidence discussed
 * in site_catalog.hh.
 */

#include "workload/site_catalog.hh"

#include "util/logging.hh"

namespace qdel {
namespace workload {

namespace {

using B = Bimodality;

// Shorthand so the table below stays readable. Fields:
// site, display, queue, sM, sY, eM, eY, jobs, mean, median, std,
// rho, bimodality, regimes, spread, procMix, procFactor,
// inTable3, inProcTables, terminalBurst, figure2Window.
const std::vector<QueueProfile> kCatalog = {
    // ------------------------------------------------ SDSC / Datastar
    {"datastar", "SDSC/Datastar", "TGhigh", 4, 2004, 4, 2005,
     1488, 29589, 6269, 64832, 0.45, B::Mild, 2, 0.40, 3.0,
     {0.90, 0.10, 0.00, 0.00}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"datastar", "SDSC/Datastar", "TGnormal", 4, 2004, 4, 2005,
     5445, 7333, 88, 28348, 0.45, B::Mild, 4, 0.40, 3.0,
     {0.85, 0.15, 0.00, 0.00}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"datastar", "SDSC/Datastar", "express", 4, 2004, 4, 2005,
     11816, 2585, 153, 11286, 0.40, B::Strong, 3, 0.30, 0.8,
     {0.75, 0.17, 0.08, 0.00}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"datastar", "SDSC/Datastar", "high", 4, 2004, 4, 2005,
     5176, 35609, 1785, 100817, 0.45, B::Mild, 4, 0.40, 3.0,
     {0.60, 0.30, 0.10, 0.00}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"datastar", "SDSC/Datastar", "high32", 4, 2004, 4, 2005,
     606, 13407, 251, 32313, 0.35, B::Mild, 2, 0.10, 0.3,
     {0.70, 0.20, 0.08, 0.02}, {0.8, 1.0, 1.25, 1.6},
     false, false, false, false},
    {"datastar", "SDSC/Datastar", "interactive", 4, 2004, 4, 2005,
     5822, 1117, 1, 10389, 0.30, B::Strong, 2, 0.30, 0.8,
     {0.70, 0.20, 0.08, 0.02}, {0.8, 1.0, 1.25, 1.6},
     false, false, false, false},
    {"datastar", "SDSC/Datastar", "normal", 4, 2004, 4, 2005,
     48543, 35886, 1795, 100255, 0.45, B::Mild, 12, 0.40, 3.0,
     {0.50, 0.30, 0.185, 0.015}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, true},
    {"datastar", "SDSC/Datastar", "normal32", 4, 2004, 4, 2005,
     5322, 24746, 1234, 61426, 0.45, B::Mild, 4, 0.40, 3.0,
     {0.80, 0.12, 0.08, 0.00}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"datastar", "SDSC/Datastar", "normalL", 4, 2004, 4, 2005,
     727, 48432, 1337, 97090, 0.35, B::Mild, 2, 0.10, 0.3,
     {0.70, 0.20, 0.08, 0.02}, {0.8, 1.0, 1.25, 1.6},
     false, false, false, false},

    // ---------------------------------------------------- LANL / O2K
    {"lanl", "LANL/O2K", "chammpq", 12, 1999, 4, 2000,
     8102, 6156, 33, 13926, 0.35, B::None, 2, 0.10, 0.3,
     {0.30, 0.35, 0.30, 0.05}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"lanl", "LANL/O2K", "irshared", 12, 1999, 4, 2000,
     1012, 1779, 6, 17063, 0.30, B::Strong, 2, 0.30, 0.8,
     {0.70, 0.20, 0.08, 0.02}, {0.8, 1.0, 1.25, 1.6},
     false, false, false, false},
    {"lanl", "LANL/O2K", "medium", 12, 1999, 4, 2000,
     880, 11570, 1670, 21293, 0.35, B::None, 2, 0.10, 0.3,
     {0.70, 0.20, 0.08, 0.02}, {0.8, 1.0, 1.25, 1.6},
     false, false, false, false},
    {"lanl", "LANL/O2K", "mediumd", 12, 1999, 4, 2000,
     1552, 1448, 296, 8039, 0.35, B::None, 2, 0.10, 0.3,
     {0.05, 0.10, 0.10, 0.75}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"lanl", "LANL/O2K", "scavenger", 12, 1999, 4, 2000,
     50387, 1433, 7, 7126, 0.45, B::Mild, 12, 0.40, 3.0,
     {0.30, 0.30, 0.30, 0.10}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"lanl", "LANL/O2K", "schammpq", 12, 1999, 4, 2000,
     1386, 7955, 8450, 8481, 0.35, B::None, 2, 0.10, 0.3,
     {0.05, 0.10, 0.85, 0.00}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"lanl", "LANL/O2K", "shared", 12, 1999, 4, 2000,
     35510, 1094, 6, 6752, 0.40, B::Strong, 5, 0.30, 0.8,
     {0.55, 0.42, 0.02, 0.01}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"lanl", "LANL/O2K", "short", 12, 1999, 4, 2000,
     2639, 4417, 13, 11611, 0.40, B::Strong, 3, 0.30, 0.8,
     {0.20, 0.25, 0.45, 0.10}, {0.8, 1.0, 1.25, 1.6},
     true, true, true, false},
    {"lanl", "LANL/O2K", "small", 12, 1999, 4, 2000,
     14544, 22098, 67, 81742, 0.35, B::None, 2, 0.10, 0.3,
     {0.25, 0.25, 0.25, 0.25}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},

    // -------------------------------------------- LLNL / Blue Pacific
    {"llnl", "LLNL/Blue Pacific", "all", 1, 2002, 10, 2002,
     63959, 8164, 242, 18245, 0.35, B::None, 7, 0.10, 0.3,
     {0.40, 0.35, 0.235, 0.015}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},

    // ----------------------------------------------------- NERSC / SP
    {"nersc", "NERSC/SP", "debug", 3, 2001, 3, 2003,
     115105, 332, 42, 3950, 0.35, B::None, 12, 0.10, 0.3,
     {0.60, 0.39, 0.008, 0.002}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"nersc", "NERSC/SP", "interactive", 3, 2001, 3, 2003,
     36672, 121, 1, 2417, 0.45, B::None, 9, 0.40, 3.0,
     {0.97, 0.025, 0.004, 0.001}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"nersc", "NERSC/SP", "low", 3, 2001, 3, 2003,
     56337, 34314, 6020, 91886, 0.35, B::None, 7, 0.10, 0.3,
     {0.40, 0.35, 0.24, 0.01}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"nersc", "NERSC/SP", "premium", 3, 2001, 3, 2003,
     24318, 3987, 177, 15103, 0.35, B::None, 3, 0.10, 0.3,
     {0.60, 0.36, 0.039, 0.001}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"nersc", "NERSC/SP", "regular", 3, 2001, 3, 2003,
     274546, 16253, 1578, 47920, 0.35, B::None, 12, 0.10, 0.3,
     {0.45, 0.35, 0.197, 0.003}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"nersc", "NERSC/SP", "regularlong", 3, 2001, 3, 2003,
     3386, 57645, 43237, 64471, 0.35, B::None, 2, 0.10, 0.3,
     {0.75, 0.20, 0.05, 0.00}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},

    // ------------------------------------------------- SDSC / Paragon
    {"paragon", "SDSC/Paragon", "q11", 1, 1995, 1, 1996,
     5755, 16319, 10205, 27086, 0.35, B::None, 2, 0.10, 0.3,
     {0.70, 0.20, 0.08, 0.02}, {0.8, 1.0, 1.25, 1.6},
     true, false, false, false},
    {"paragon", "SDSC/Paragon", "q256s", 1, 1995, 1, 1996,
     1076, 808, 7, 7477, 0.35, B::None, 2, 0.10, 0.3,
     {0.70, 0.20, 0.08, 0.02}, {0.8, 1.0, 1.25, 1.6},
     true, false, false, false},
    {"paragon", "SDSC/Paragon", "q32l", 1, 1995, 1, 1996,
     1013, 4301, 8, 12565, 0.35, B::None, 2, 0.10, 0.3,
     {0.70, 0.20, 0.08, 0.02}, {0.8, 1.0, 1.25, 1.6},
     false, false, false, false},
    {"paragon", "SDSC/Paragon", "q641", 1, 1995, 1, 1996,
     3425, 4324, 11, 11240, 0.35, B::None, 2, 0.10, 0.3,
     {0.70, 0.20, 0.08, 0.02}, {0.8, 1.0, 1.25, 1.6},
     true, false, false, false},
    {"paragon", "SDSC/Paragon", "standby", 1, 1995, 1, 1996,
     8896, 14602, 604, 35805, 0.35, B::None, 2, 0.10, 0.3,
     {0.70, 0.20, 0.08, 0.02}, {0.8, 1.0, 1.25, 1.6},
     true, false, false, false},

    // ----------------------------------------------------- SDSC / SP
    {"sdsc", "SDSC/SP", "express", 4, 1998, 4, 2000,
     4978, 1135, 22, 4224, 0.40, B::Strong, 3, 0.30, 2.0,
     {0.85, 0.13, 0.02, 0.00}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"sdsc", "SDSC/SP", "high", 4, 1998, 4, 2000,
     8809, 16545, 567, 133046, 0.35, B::None, 2, 0.10, 0.3,
     {0.40, 0.30, 0.25, 0.05}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"sdsc", "SDSC/SP", "low", 4, 1998, 4, 2000,
     22709, 20962, 34, 95107, 0.45, B::None, 5, 0.40, 3.0,
     {0.45, 0.31, 0.20, 0.04}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"sdsc", "SDSC/SP", "normal", 4, 1998, 4, 2000,
     30831, 26324, 89, 101900, 0.45, B::Mild, 7, 0.40, 3.0,
     {0.45, 0.35, 0.17, 0.03}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},

    // ------------------------------------------------ TACC / Cray-Dell
    {"tacc2", "TACC/Cray-Dell", "development", 1, 2004, 3, 2005,
     5829, 74, 9, 1850, 0.35, B::None, 2, 0.10, 0.3,
     {0.60, 0.35, 0.05, 0.00}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"tacc2", "TACC/Cray-Dell", "hero", 2, 2004, 12, 2004,
     48, 28636, 12, 71168, 0.35, B::None, 2, 0.10, 0.3,
     {0.10, 0.20, 0.30, 0.40}, {0.8, 1.0, 1.25, 1.6},
     false, false, false, false},
    {"tacc2", "TACC/Cray-Dell", "high", 2, 2004, 3, 2005,
     2110, 5392, 10, 33366, 0.35, B::None, 2, 0.10, 0.3,
     {0.45, 0.45, 0.10, 0.00}, {0.8, 1.0, 1.25, 1.6},
     true, false, false, false},
    {"tacc2", "TACC/Cray-Dell", "normal", 1, 2004, 3, 2005,
     356487, 732, 10, 9436, 0.35, B::None, 12, 0.10, 0.3,
     {0.40, 0.30, 0.20, 0.10}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
    {"tacc2", "TACC/Cray-Dell", "serial", 8, 2004, 3, 2005,
     7860, 2178, 10, 13702, 0.45, B::None, 4, 0.40, 3.0,
     {1.00, 0.00, 0.00, 0.00}, {0.8, 1.0, 1.25, 1.6},
     true, true, false, false},
};

/** Howard Hinnant's days-from-civil algorithm (proleptic Gregorian). */
long long
daysFromCivil(int y, int m, int d)
{
    y -= m <= 2;
    const int era = (y >= 0 ? y : y - 399) / 400;
    const unsigned yoe = static_cast<unsigned>(y - era * 400);
    const unsigned doy =
        (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2u) / 5u +
        static_cast<unsigned>(d) - 1u;
    const unsigned doe = yoe * 365u + yoe / 4u - yoe / 100u + doy;
    return static_cast<long long>(era) * 146097LL +
           static_cast<long long>(doe) - 719468LL;
}

} // namespace

const std::vector<QueueProfile> &
siteCatalog()
{
    return kCatalog;
}

Expected<const QueueProfile *>
lookupProfile(const std::string &site, const std::string &queue)
{
    std::string sites;
    for (const auto &profile : kCatalog) {
        if (site == profile.site) {
            if (queue == profile.queue)
                return &profile;
        } else if (sites.empty() ||
                   sites.rfind(profile.site) == std::string::npos) {
            sites += sites.empty() ? "" : ", ";
            sites += profile.site;
        }
    }
    return ParseError{"", 0, "",
                      "no catalog profile for site '" + site + "' queue '" +
                          queue + "' (known sites: " + sites + ")"};
}

const QueueProfile &
findProfile(const std::string &site, const std::string &queue)
{
    auto profile = lookupProfile(site, queue);
    if (!profile.ok())
        panic(profile.error().str());
    return *profile.value();
}

std::vector<const QueueProfile *>
table3Profiles()
{
    std::vector<const QueueProfile *> rows;
    for (const auto &profile : kCatalog) {
        if (profile.inTable3)
            rows.push_back(&profile);
    }
    return rows;
}

std::vector<const QueueProfile *>
procTableProfiles()
{
    std::vector<const QueueProfile *> rows;
    for (const auto &profile : kCatalog) {
        if (profile.inProcTables)
            rows.push_back(&profile);
    }
    return rows;
}

double
dateUnix(int year, int month, int day)
{
    return static_cast<double>(daysFromCivil(year, month, day)) * 86400.0;
}

double
monthStartUnix(int year, int month)
{
    return dateUnix(year, month, 1);
}

TimeSpan
profileSpan(const QueueProfile &profile)
{
    int end_month = profile.endMonth + 1;
    int end_year = profile.endYear;
    if (end_month > 12) {
        end_month = 1;
        ++end_year;
    }
    return {monthStartUnix(profile.startYear, profile.startMonth),
            monthStartUnix(end_year, end_month)};
}

} // namespace workload
} // namespace qdel
