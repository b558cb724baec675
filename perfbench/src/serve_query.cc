/**
 * @file
 * serve-query: an open loop of bound queries against an ephemeral
 * qdel_serve, then a closed-loop saturation phase.
 *
 * Set-up preloads synthesized events for many replicas of the site
 * catalog, so the registry holds thousands of trained entries. The
 * load is Zipf-skewed Query frames at a fixed ladder of offered rates,
 * spread over pipelined binary connections, with about 5% of requests
 * being Submit/Start events for the same keys. A /metrics scrape runs
 * every 100 ms on its own HTTP connection. Latency is taken from each
 * request's intended send time, so a stall also charges the requests
 * queued behind it. After the ladder, each connection keeps 64
 * requests in flight for the saturation throughput.
 */

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>

#include "obs/metrics.hh"
#include "prom.hh"
#include "serve/bound_registry.hh"
#include "serve_common.hh"
#include "spans.hh"
#include "stats/rng.hh"
#include "workload/site_catalog.hh"
#include "workload/synthesizer.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace qdel;

/** Catalog replicas preloaded; each adds 39 queues x 4 proc buckets. */
constexpr int kReplicas = 12;
/** Jobs per entry: past trainObservations (100), so every entry is
 *  trained, and past refitEvery (50) twice. */
constexpr int kJobsPerEntry = 120;
/** A processor count inside each of the paper's four proc buckets. */
constexpr int kBucketProcs[4] = {2, 8, 32, 128};

/** One rung of the open-loop ladder: offered requests/s, and the
 *  share of the run it takes. The middle (nominal) rung gets most of
 *  the run, since its latencies are the reported ones. */
struct Rung
{
    double rate;
    double share;
};
constexpr Rung kLadder[] = {{25000, 0.05},
                            {50000, 0.05},
                            {100000, 0.50},
                            {200000, 0.05},
                            {400000, 0.05}};
constexpr size_t kNominalRung = 2;
/** Share of the run for the closed-loop saturation phase after the
 *  ladder, and the requests each connection keeps outstanding in it. */
constexpr double kSaturationShare = 0.30;
constexpr size_t kSaturationDepth = 64;
/** How long a rung may take to drain once its sends are done. */
constexpr int64_t kDrainNs = 5'000'000'000LL;

/** A rung passes when its query p99 is within this limit... */
constexpr double kLatencyLimitUs = 1000.0;
/** ...and the generator kept its schedule: lateness p99 within this.
 *  A saturated generator falls ever further behind, far past it; a
 *  machine's scheduling stalls stay below it. */
constexpr double kMaxLateUs = 5000.0;
/** Share of requests that are Submit/Start events. */
constexpr double kEventShare = 0.05;
constexpr int64_t kScrapeEveryNs = 100'000'000;
/** Zipf exponent of key popularity. */
constexpr double kZipfS = 1.0;

struct Key
{
    std::string machine;
    std::string queue;
    int procs = 1;
    uint64_t nextJob = 0;     //!< Next job id to submit.
    uint64_t pendingJob = 0;  //!< Submitted, not yet started (0 = none).
    double clock = 0.0;       //!< Latest event time sent for the key.
};

struct Preload
{
    std::vector<Key> keys;
    std::vector<serve::JobEvent> events;
    std::vector<uint32_t> eventKey;  //!< Key index of each event.
    /** Encoded Query frame for key k at grid index g, at
     *  k * kGridCount + g: the generator copies frames instead of
     *  encoding them, so one generator thread can outpace the daemon. */
    std::vector<std::string> queryFrames;
};

serve::BoundQuery
queryFor(const Key &key, size_t grid)
{
    serve::BoundQuery query;
    query.machine = key.machine;
    query.queue = key.queue;
    query.procs = key.procs;
    query.quantile = serve::kGridQuantiles[grid];
    return query;
}

/** Synthesized preload: kJobsPerEntry jobs for every entry. */
Preload
makePreload(uint64_t seed)
{
    Preload preload;
    const auto &catalog = workload::siteCatalog();
    for (int r = 0; r < kReplicas; ++r) {
        for (const auto &profile : catalog) {
            for (int b = 0; b < 4; ++b) {
                const uint32_t k = static_cast<uint32_t>(preload.keys.size());
                Key key;
                key.machine =
                    std::string(profile.site) + "-" + std::to_string(r);
                key.queue = profile.queue;
                key.procs = kBucketProcs[b];
                stats::Rng rng(seed * 0x9e3779b97f4a7c15ull + k);
                auto regimes =
                    workload::makeRegimeSchedule(profile, kJobsPerEntry, rng);
                workload::JobSampler sampler(profile, std::move(regimes),
                                             kJobsPerEntry, rng);
                double t = 1.0e9 + rng.uniform(0.0, 3600.0);
                for (int i = 0; i < kJobsPerEntry; ++i) {
                    t += rng.exponential(1.0 / 600.0);
                    int procs = 0;
                    double wait = 0.0;
                    sampler.sample(static_cast<size_t>(i), t, rng, &procs,
                                   &wait);
                    serve::JobEvent event;
                    event.jobId = static_cast<uint64_t>(i) + 1;
                    event.machine = key.machine;
                    event.queue = key.queue;
                    event.procs = key.procs;
                    event.kind = serve::EventKind::Submit;
                    event.time = t;
                    preload.events.push_back(event);
                    preload.eventKey.push_back(k);
                    event.kind = serve::EventKind::Start;
                    event.time = t + wait;
                    preload.events.push_back(event);
                    preload.eventKey.push_back(k);
                    key.clock = std::max(key.clock, t + wait);
                }
                key.nextJob = kJobsPerEntry + 1;
                preload.keys.push_back(std::move(key));
            }
        }
    }
    // Time order across keys; a key's own events keep their order.
    std::vector<uint32_t> order(preload.events.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return preload.events[a].time < preload.events[b].time;
    });
    Preload sorted;
    sorted.keys = std::move(preload.keys);
    for (const Key &key : sorted.keys) {
        for (size_t g = 0; g < serve::kGridCount; ++g) {
            sorted.queryFrames.emplace_back();
            appendQueryFrame(sorted.queryFrames.back(), queryFor(key, g));
        }
    }
    for (uint32_t i : order) {
        sorted.events.push_back(std::move(preload.events[i]));
        sorted.eventKey.push_back(preload.eventKey[i]);
    }
    return sorted;
}

/** Zipf(kZipfS) sampler over a seeded permutation of the keys. */
class ZipfKeys
{
  public:
    ZipfKeys(size_t n, uint64_t seed) : rng_(seed), perm_(n), cdf_(n)
    {
        std::iota(perm_.begin(), perm_.end(), 0u);
        for (size_t i = n; i > 1; --i)
            std::swap(perm_[i - 1], perm_[rng_.next() % i]);
        double total = 0.0;
        for (size_t i = 0; i < n; ++i) {
            total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
            cdf_[i] = total;
        }
        for (double &c : cdf_)
            c /= total;
    }

    uint32_t
    next()
    {
        const double u = rng_.uniform();
        const size_t rank = static_cast<size_t>(
            std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
        return perm_[std::min(rank, perm_.size() - 1)];
    }

    stats::Rng &rng() { return rng_; }

  private:
    stats::Rng rng_;
    std::vector<uint32_t> perm_;
    std::vector<double> cdf_;
};

/** Start the daemon (nproc connections in all, with the scrape's)
 *  and preload it; throws on failure. */
Server
setUp(const RunOptions &options, const Preload &preload, Report &report)
{
    Server server = startServer(options, {}, "serve-query.log");
    std::vector<std::vector<uint32_t>> lists(server.conns.size());
    for (uint32_t i = 0; i < preload.events.size(); ++i)
        lists[preload.eventKey[i] % lists.size()].push_back(i);
    uint64_t notApplied = 0;
    const bool ok = runClosedLoop(
        server.conns, lists, 256, 0,
        [&](size_t, uint32_t i, std::string &out) {
            appendEventFrame(out, preload.events[i]);
        },
        [&](size_t, uint32_t, int64_t, int64_t, std::string_view payload) {
            bool applied = false;
            if (!decodeEventReply(payload, &applied) || !applied)
                ++notApplied;
        });
    if (!ok)
        throw std::runtime_error("preload: connection to qdel_serve failed");
    report.operations(preload.events.size(), notApplied);
    report.check(notApplied == 0, "preload: " + std::to_string(notApplied) +
                                      " events not applied");

    std::string reply;
    if (!server.conns[0]->call(
            serve::frameRequest(serve::Opcode::Stats, ""), &reply))
        throw std::runtime_error("stats request failed");
    auto stats = serve::decodeStats(std::string_view(reply).substr(1));
    report.check(stats.ok() && stats.value().entries == preload.keys.size(),
                 "preload: registry does not hold every preloaded entry");
    return server;
}

/** One request in flight. */
struct InFlight
{
    int64_t intendedNs;
    int64_t sentNs;
    uint64_t id;
    uint8_t grid;   //!< Grid index of a query's quantile.
    bool event;
};

struct RungResult
{
    double rate = 0.0;     //!< Offered rate; 0 = closed-loop saturation.
    Windowed latencyUs;    //!< Queries, from intended send.
    Windowed lateUs;       //!< Generator lateness, every request.
    std::vector<double> rttUs;  //!< Queries, from actual send.
    uint64_t queries = 0;
    uint64_t events = 0;
    uint64_t unanswered = 0;  //!< Still outstanding when the rung ended.
    /** Answered queries per second: over the whole rung for an open
     *  loop, median over windows for the saturation phase. */
    double achievedQps = 0.0;
    double p50 = 0.0;         //!< Windowed medians (see Windowed).
    double p90 = 0.0;
    double p99 = 0.0;
    double lateP99 = 0.0;
    bool passed = false;      //!< Met the latency limit, on time, drained.
};

struct LadderResult
{
    std::vector<RungResult> rungs;  //!< kLadder order.
    RungResult saturation;
    double saturationDaemonCpu = 0.0;  //!< Daemon CPU-seconds in it.
    std::vector<double> scrapeMs;
    std::vector<double> scrapeBytes;
    std::vector<uint32_t> queries;  //!< Traced: k * kGridCount + grid.
    std::vector<uint32_t> queryBursts;    //!< Traced: queries per write.
    Scrape before;
    Scrape after;
};

/** The client side of the load: owns the request mix and the scrape. */
class Generator
{
  public:
    Generator(Server &server, Preload &preload, uint64_t seed, Report &report)
        : server_(server), preload_(preload), zipf_(preload.keys.size(), seed),
          report_(report), inflight_(server.conns.size())
    {
    }

    /** The whole ladder plus the saturation phase in @p seconds. */
    LadderResult
    run(double seconds, bool traced)
    {
        LadderResult result;
        if (!server_.http->fetch("/metrics", &body_))
            throw std::runtime_error("GET /metrics failed");
        result.before = Scrape::parse(body_);
        nextScrapeNs_ = nowNs();
        for (const Rung &rung : kLadder) {
            result.rungs.push_back(
                runRung(rung.rate, seconds * rung.share, traced, result));
            if (result.rungs.back().unanswered > 0)
                throw std::runtime_error("backlog did not drain at " +
                                         std::to_string(rung.rate) + "/s");
        }
        const double cpuBefore = processCpuSeconds(server_.daemon->pid());
        result.saturation =
            runRung(0.0, seconds * kSaturationShare, traced, result);
        result.saturationDaemonCpu =
            processCpuSeconds(server_.daemon->pid()) - cpuBefore;
        finishScrape(result);
        if (!server_.http->fetch("/metrics", &body_))
            throw std::runtime_error("GET /metrics failed");
        result.after = Scrape::parse(body_);
        return result;
    }

    /** Mean time to decode one answer while spans were on. */
    double
    decodeNsPerAnswer() const
    {
        return decodes_ == 0 ? 0.0
                             : static_cast<double>(decodeNs_) /
                                   static_cast<double>(decodes_);
    }

  private:
    /** Encode request @p id due at @p intendedNs onto a connection. */
    void
    sendRequest(uint64_t id, int64_t intendedNs, int64_t now, int64_t startNs,
          RungResult &rung, LadderResult &result, bool traced,
          std::vector<uint32_t> &burst)
    {
        const size_t nconn = server_.conns.size();
        const bool event = zipf_.rng().uniform() < kEventShare;
        const uint32_t k = zipf_.next();
        Key &key = preload_.keys[k];
        InFlight req{intendedNs, now, id, 0, event};
        size_t c = 0;
        if (event) {
            // A key's events stay on one connection, in order.
            c = k % nconn;
            serve::JobEvent ev;
            ev.machine = key.machine;
            ev.queue = key.queue;
            ev.procs = key.procs;
            if (key.pendingJob == 0) {
                ev.kind = serve::EventKind::Submit;
                ev.jobId = key.pendingJob = key.nextJob++;
                key.clock += zipf_.rng().exponential(1.0 / 600.0);
            } else {
                ev.kind = serve::EventKind::Start;
                ev.jobId = key.pendingJob;
                key.pendingJob = 0;
                key.clock += zipf_.rng().exponential(1.0 / 1800.0);
            }
            ev.time = key.clock;
            appendEventFrame(server_.conns[c]->out(), ev);
            ++rung.events;
        } else {
            c = id % nconn;
            req.grid = static_cast<uint8_t>(zipf_.rng().next() %
                                            serve::kGridCount);
            server_.conns[c]->out() +=
                preload_.queryFrames[k * serve::kGridCount + req.grid];
            ++rung.queries;
            if (traced) {
                result.queries.push_back(k * serve::kGridCount + req.grid);
                ++burst[c];
            }
        }
        inflight_[c].push_back(req);
        rung.lateUs.add(static_cast<double>(now - intendedNs) * 1e-3,
                        intendedNs - startNs);
    }

    /** Handle one reply on connection @p c. */
    void
    reply(size_t c, std::string_view payload, int64_t recvNs, int64_t startNs,
          uint64_t rungId, RungResult &rung, int64_t *lastAnswerNs)
    {
        if (inflight_[c].empty()) {
            report_.check(false, "reply with no request outstanding");
            return;
        }
        const InFlight req = inflight_[c].front();
        inflight_[c].pop_front();
        if (req.event) {
            spans::record("client.event", req.sentNs, recvNs, rungId, req.id);
            bool applied = false;
            const bool ok = decodeEventReply(payload, &applied) && applied;
            report_.operations(1, ok ? 0 : 1);
            return;
        }
        spans::record("client.query", req.sentNs, recvNs, rungId, req.id);
        serve::BoundAnswer answer;
        const bool timed = spans::enabled();
        const int64_t decodeStart = timed ? nowNs() : 0;
        bool ok = decodeQueryReply(payload, &answer);
        if (timed) {
            decodeNs_ += nowNs() - decodeStart;
            ++decodes_;
        }
        // A query is correct when it decodes, its preloaded key is
        // known, and it answers the grid quantile it asked for.
        ok = ok && answer.known &&
             answer.quantile == serve::kGridQuantiles[req.grid];
        report_.operations(1, ok ? 0 : 1);
        rung.latencyUs.add(static_cast<double>(recvNs - req.intendedNs) * 1e-3,
                           req.intendedNs - startNs);
        rung.rttUs.push_back(static_cast<double>(recvNs - req.sentNs) * 1e-3);
        *lastAnswerNs = recvNs;
    }

    /** Start or advance the periodic /metrics scrape. */
    void
    pollScrape(int64_t now, LadderResult &result)
    {
        if (!server_.http->busy() && now >= nextScrapeNs_) {
            server_.http->get("/metrics");
            scrapeStartNs_ = now;
            nextScrapeNs_ += kScrapeEveryNs;
            if (nextScrapeNs_ < now)
                nextScrapeNs_ = now + kScrapeEveryNs;
        }
        bool done = false;
        int status = 0;
        if (!server_.http->pump(&done, &status, &body_))
            throw std::runtime_error("/metrics scrape connection failed");
        if (done) {
            const int64_t end = nowNs();
            spans::record("http.scrape", scrapeStartNs_, end, 0, 0);
            report_.operations(1, status == 200 ? 0 : 1);
            result.scrapeMs.push_back(
                static_cast<double>(end - scrapeStartNs_) * 1e-6);
            result.scrapeBytes.push_back(static_cast<double>(body_.size()));
        }
    }

    void
    finishScrape(LadderResult &result)
    {
        nextScrapeNs_ = INT64_MAX;
        while (server_.http->busy())
            pollScrape(nowNs(), result);
    }

    /**
     * One rung: open loop at @p rate for @p seconds, or, with rate 0,
     * a closed loop keeping kSaturationDepth requests outstanding per
     * connection. Either way the rung ends once every reply is in.
     */
    RungResult
    runRung(double rate, double seconds, bool traced, LadderResult &result)
    {
        RungResult rung;
        rung.rate = rate;
        spans::Scope rungSpan("loadgen.rung");
        const size_t nconn = server_.conns.size();
        const int64_t durationNs = static_cast<int64_t>(seconds * 1e9);
        const int64_t start = nowNs() + 1'000'000;
        const uint64_t total =
            rate > 0 ? static_cast<uint64_t>(seconds * rate) : UINT64_MAX;
        uint64_t offered = 0;
        int64_t lastAnswerNs = start;
        std::vector<uint32_t> burst(nconn, 0);
        for (;;) {
            const int64_t now = nowNs();
            if (rate > 0) {
                while (offered < total) {
                    const int64_t due =
                        start + static_cast<int64_t>(
                                    static_cast<double>(offered) * 1e9 / rate);
                    if (due > now)
                        break;
                    sendRequest(nextId_++, due, now, start, rung, result,
                                traced, burst);
                    ++offered;
                }
            } else if (now >= start && now < start + durationNs) {
                size_t outstanding = 0;
                for (const auto &q : inflight_)
                    outstanding += q.size();
                for (; outstanding < kSaturationDepth * nconn; ++outstanding)
                    sendRequest(nextId_++, now, now, start, rung, result,
                                traced, burst);
            }
            if (traced) {
                for (uint32_t &b : burst) {
                    if (b > 0)
                        result.queryBursts.push_back(b);
                    b = 0;
                }
            }
            bool idle = rate > 0 ? offered == total : now >= start + durationNs;
            for (size_t c = 0; c < nconn; ++c) {
                if (!server_.conns[c]->pump())
                    throw std::runtime_error("query connection failed");
                std::string_view payload;
                const int64_t recvNs = nowNs();
                while (server_.conns[c]->nextFrame(&payload))
                    reply(c, payload, recvNs, start, rungSpan.id(), rung,
                          &lastAnswerNs);
                idle = idle && inflight_[c].empty();
            }
            pollScrape(now, result);
            if (idle)
                break;
            if (now > start + durationNs + kDrainNs) {
                for (const auto &q : inflight_)
                    rung.unanswered += q.size();
                break;
            }
        }
        rung.achievedQps =
            rate > 0 ? static_cast<double>(rung.latencyUs.size()) /
                           (static_cast<double>(lastAnswerNs - start) * 1e-9)
                     : rung.latencyUs.windowedRate(durationNs);
        rung.p50 = rung.latencyUs.windowedQuantile(0.50);
        rung.p90 = rung.latencyUs.windowedQuantile(0.90);
        rung.p99 = rung.latencyUs.windowedQuantile(0.99);
        rung.lateP99 = rung.lateUs.windowedQuantile(0.99);
        rung.passed = rung.unanswered == 0 && rung.p99 <= kLatencyLimitUs &&
                      rung.lateP99 <= kMaxLateUs;
        return rung;
    }

    Server &server_;
    Preload &preload_;
    ZipfKeys zipf_;
    Report &report_;
    std::vector<std::deque<InFlight>> inflight_;
    std::string body_;
    uint64_t nextId_ = 1;
    int64_t nextScrapeNs_ = 0;
    int64_t scrapeStartNs_ = 0;
    int64_t decodeNs_ = 0;  //!< Answer decode time while traced.
    uint64_t decodes_ = 0;
};

void
printLadder(const LadderResult &ladder, Report &report)
{
    auto print = [&](const RungResult &rung) {
        char buf[300];
        std::snprintf(
            buf, sizeof(buf),
            "%s %8.0f/s: answered %.0f q/s, p50 %.1f us, p99 %.1f us "
            "(all samples %.1f us), late p99 %.1f us, %llu queries, %llu "
            "events, %llu unanswered%s",
            rung.rate > 0 ? "rung" : "saturation", rung.rate,
            rung.achievedQps, rung.p50, rung.p99, rung.latencyUs.overall(0.99),
            rung.lateP99, static_cast<unsigned long long>(rung.queries),
            static_cast<unsigned long long>(rung.events),
            static_cast<unsigned long long>(rung.unanswered),
            rung.rate > 0 ? (rung.passed ? " -> pass" : " -> fail") : "");
        report.line(buf);
    };
    for (const auto &rung : ladder.rungs)
        print(rung);
    print(ladder.saturation);
}

/** query_max_rate_qps: the highest rung that met the latency limit
 *  with the generator on time and no backlog; 0 when none did. */
double
maxPassingRate(const LadderResult &ladder)
{
    double best = 0.0;
    for (const auto &rung : ladder.rungs) {
        if (rung.passed)
            best = rung.rate;
    }
    return best;
}

/** Nominal-rung validity: its latency is only a result if the
 *  generator sent on time. */
const RungResult &
nominalRung(const LadderResult &ladder, Report &report)
{
    const RungResult &rung = ladder.rungs[kNominalRung];
    report.check(rung.lateP99 <= kMaxLateUs,
                 "invalid run: generator lateness p99 " +
                     std::to_string(rung.lateP99) + " us exceeds " +
                     std::to_string(kMaxLateUs) + " us at the nominal rate");
    return rung;
}

/**
 * In-process probes on the traced run's own query sequence: the wire
 * encoder, and a registry holding the same preload answering the
 * sequence in the batch sizes the generator wrote.
 */
void
inProcessProbes(const Preload &preload, const LadderResult &ladder,
                Report &report)
{
    std::vector<serve::BoundQuery> queries;
    queries.reserve(ladder.queries.size());
    for (uint32_t q : ladder.queries)
        queries.push_back(queryFor(preload.keys[q / serve::kGridCount],
                                   q % serve::kGridCount));
    std::string frames;
    int64_t start = nowNs();
    for (const auto &query : queries) {
        frames.clear();
        appendQueryFrame(frames, query);
    }
    report.metric("wire.query_encode_ns",
                  queries.empty() ? 0.0
                                  : static_cast<double>(nowNs() - start) /
                                        static_cast<double>(queries.size()),
                  "ns");

    obs::setEnabled(true);  // As in qdel_serve.
    serve::BoundRegistry registry{serve::BoundRegistry::Options{}};
    for (const auto &event : preload.events)
        registry.apply(event);
    std::vector<serve::BoundAnswer> answers(queries.size());
    serve::BoundRegistry::QueryScratch scratch;
    size_t at = 0;
    start = nowNs();
    for (uint32_t burst : ladder.queryBursts) {
        const size_t n = std::min<size_t>(burst, queries.size() - at);
        registry.queryBatch(queries.data() + at, n, answers.data() + at,
                            scratch);
        at += n;
    }
    report.metric("registry.query_ns",
                  at == 0 ? 0.0
                          : static_cast<double>(nowNs() - start) /
                                static_cast<double>(at),
                  "ns");

    report.metric("registry.calibration_report_ms",
                  calibrationReportMs(registry), "ms");
    obs::setEnabled(false);
}

} // namespace

void
runServeQuery(const RunOptions &options, Report &report)
{
    std::vector<double> setupSeconds;
    Preload preload;
    Server server;
    std::string log;
    for (int i = 0; i < (options.trace ? 1 : kSetupRepeats); ++i) {
        if (server.daemon)
            stopServer(server, report, &log);
        const int64_t start = nowNs();
        preload = makePreload(options.seed);
        server = setUp(options, preload, report);
        setupSeconds.push_back(secondsSince(start));
    }
    Generator generator(server, preload, options.seed, report);

    if (!options.trace) {
        const LadderResult ladder = generator.run(options.seconds, false);
        printLadder(ladder, report);
        const RungResult &nominal = nominalRung(ladder, report);
        std::vector<double> scrapeMs = ladder.scrapeMs;
        const double peak = server.daemon->peakRssMb();
        // Capacity per daemon core: requests answered at saturation per
        // CPU-second the daemon spent. Unlike the wall-clock saturation
        // rate, which one generator thread bounds, it does not move with
        // the generator's speed or with time the machine steals.
        const double capacity =
            static_cast<double>(ladder.saturation.queries +
                                ladder.saturation.events) /
            ladder.saturationDaemonCpu;
        report.metric("setup_s", median(setupSeconds), "s");
        report.metric("throughput_per_s", capacity, "1/s");
        report.metric("peak_rss_mb", peak, "MiB");
        report.note("query_p50_us", nominal.p50, "us");
        report.note("query_p90_us", nominal.p90, "us");
        report.note("query_p99_us", nominal.p99, "us");
        report.note("query_max_rate_qps", maxPassingRate(ladder), "1/s");
        report.note("saturation_qps", ladder.saturation.achievedQps, "1/s");
        report.note("scrape_p50_ms", quantile(scrapeMs, 0.50), "ms");
        report.note("scrape_p90_ms", quantile(scrapeMs, 0.90), "ms");
        report.note("scrapes", static_cast<double>(scrapeMs.size()), "count");
        report.note("nominal_queries",
                    static_cast<double>(nominal.latencyUs.size()),
                    "count");
        report.note("entries", static_cast<double>(preload.keys.size()),
                    "count");
        stopServer(server, report, &log);
        report.note("error_rate", report.errorRate(), "ratio");
        return;
    }

    // Traced: the same load untraced, then traced, at half length each.
    const LadderResult plain = generator.run(options.seconds / 2, false);
    spans::setEnabled(true);
    const LadderResult traced = generator.run(options.seconds / 2, true);
    spans::setEnabled(false);
    printLadder(traced, report);
    const RungResult &plainNominal = nominalRung(plain, report);
    const RungResult &tracedNominal = nominalRung(traced, report);

    std::vector<double> rtt;
    for (const auto &rung : traced.rungs)
        rtt.insert(rtt.end(), rung.rttUs.begin(), rung.rttUs.end());
    rtt.insert(rtt.end(), traced.saturation.rttUs.begin(),
               traced.saturation.rttUs.end());
    MetricsDelta delta(traced.before, traced.after, report);
    serverLayers(delta, rtt, report);
    inProcessProbes(preload, traced, report);

    report.metric("wire.answer_decode_ns", generator.decodeNsPerAnswer(), "ns");
    std::vector<double> bytes = traced.scrapeBytes;
    report.metric("obs.metrics_bytes", median(bytes), "bytes");
    report.metric("loadgen.late_us_p99", tracedNominal.lateP99, "us");
    report.metric("tracing.overhead_pct",
                  overheadPct(plainNominal.p50, tracedNominal.p50), "%");
    stopServer(server, report, &log);
}

} // namespace perfbench
