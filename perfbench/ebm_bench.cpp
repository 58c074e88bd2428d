/**
 * @file
 * The benchmark's in-process work. run.py launches this binary for the
 * two workloads that drive library calls directly:
 *
 *   advise-mixed  AdvisorService + AdvisorServer on the standard
 *                 machine. It prefills six pairs, then restarts the
 *                 daemon on that store. Two closed-loop connections send
 *                 warm ADVISE/PAIR queries while a third sends ten
 *                 blocking cold ADVISEs spread over the run (open loop).
 *   simloop       Gpu::run on the standard 2-app machine: a
 *                 cache-sensitive pair and a streaming/compute pair at
 *                 TLP 1, 4 and 24, from empty caches (cold) and again
 *                 after reset(flush_caches=false) (warm).
 *
 * and for fill-shared's warm read (read-store) and host readings.
 *
 * Usage:
 *   ebm_bench --workload advise-mixed|simloop --seed N --seconds S
 *             --sandbox DIR --expected DIR [--trace FILE] [--smoke]
 *   ebm_bench --workload read-store --store FILE --seconds S
 *             --sandbox DIR --expected DIR [--trace FILE]
 *   ebm_bench --reference [--threads N]
 *   ebm_bench --record-digests [--smoke]
 *
 * The last line of stdout is one JSON object:
 *   {"attempted": n, "failed": n, "end_to_end": {...},
 *    "per_layer": {...}}
 * in the units BENCHMARK.json names; end-to-end times are in reference
 * seconds (see kNominalS and kNominalEchoS). --reference prints one
 * host reading with N threads (default 1) and kNominalS, for run.py's
 * workloads. --trace FILE also
 * writes every span as a JSON array of Chrome trace events, which
 * run.py merges.
 */
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/job_pool.hpp"
#include "common/log.hpp"
#include "common/net.hpp"
#include "common/rng.hpp"
#include "harness/advisor_service.hpp"
#include "harness/experiment.hpp"
#include "harness/warm_state.hpp"
#include "sim/golden_digest.hpp"
#include "sim/gpu.hpp"
#include "workload/app_catalog.hpp"
#include "workload/workload_suite.hpp"

namespace {

using namespace ebm;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Nearest-rank quantile of @p v (0 for an empty sample). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}

double median(const std::vector<double> &v) { return quantile(v, 0.5); }

/**
 * Mean of @p v without its lowest and highest tenth (0 for an empty
 * sample). Times scaled sample by sample (see kNominalS) repeated
 * better across runs as this mean than as their median.
 */
double
trimmedMean(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() / 10;
    double sum = 0.0;
    for (std::size_t i = cut; i < v.size() - cut; ++i)
        sum += v[i];
    return sum / static_cast<double>(v.size() - 2 * cut);
}

// --- Host speed ------------------------------------------------------

/**
 * The shared host's speed drifts by 10-40% over tens of seconds to
 * minutes, more than the changes the benchmark must resolve. So the
 * workloads report reference seconds: each piece of work's measured
 * seconds times kNominalS over the mean of the host readings taken just
 * before and after it, i.e. what the work would take on a host where
 * one reference loop takes kNominalS. The loop is fixed code in this
 * file, built with this package's flags, so only the host moves it.
 *
 * The loop sorts integers and fills and probes a hash map: branchy,
 * cache- and allocation-bound work like the simulator's and the
 * store's. On a 4-vCPU KVM guest of a shared Xeon host, over 25 minutes,
 * it cut the spread of 25-second trimmed means of Gpu::run from 10% to
 * 3% and of a store read from 11% to 3%; a serial multiply-and-branch
 * loop cut them only to 6% and 5%, as the host's slow spells slow such
 * code less. Work spread over job threads is scaled by readings that
 * run the loop in as many threads at once.
 */
constexpr double kNominalS = 0.005;

std::atomic<std::uint64_t> g_refSink{0};

/** One reference loop: sort 100k pseudo-random integers, then insert
 *  and look up 20k keys in a hash map. Returns the geometric mean of the
 *  two parts' seconds. */
double
referenceLoop()
{
    thread_local std::vector<std::uint32_t> values(100'000);
    std::uint64_t x = 12345;
    for (std::uint32_t &v : values) {
        x = x * 6364136223846793005ull + 1;
        v = static_cast<std::uint32_t>(x >> 32);
    }
    auto t0 = Clock::now();
    std::sort(values.begin(), values.end());
    const double sort_s = secondsSince(t0);

    t0 = Clock::now();
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < 20'000; ++i) {
        x = x * 6364136223846793005ull + 1;
        map[x >> 40] += i;
    }
    std::uint64_t sum = 0;
    for (int i = 0; i < 20'000; ++i) {
        x = x * 6364136223846793005ull + 1;
        const auto it = map.find(x >> 40);
        if (it != map.end())
            sum += it->second;
    }
    const double map_s = secondsSince(t0);
    g_refSink.store(values[values.size() / 2] + sum + map.size(),
                    std::memory_order_relaxed);
    return std::sqrt(sort_s * map_s);
}

/** One host reading: the median of @p loops reference loops in each of
 *  @p threads threads at once, the speed that work spread over that
 *  many job threads sees. Single loops vary by 25% from one second to
 *  the next. */
double
readHost(int loops = 9, int threads = 1)
{
    std::vector<std::vector<double>> per_thread(threads);
    const auto work = [&](int t) {
        for (int i = 0; i < loops; ++i)
            per_thread[t].push_back(referenceLoop());
    };
    std::vector<std::thread> helpers;
    for (int t = 1; t < threads; ++t)
        helpers.emplace_back(work, t);
    work(0);
    for (std::thread &h : helpers)
        h.join();
    std::vector<double> times;
    for (const std::vector<double> &t : per_thread)
        times.insert(times.end(), t.begin(), t.end());
    return median(times);
}

/** Loops in a reading taken between two short pieces of work. */
constexpr int kShortReading = 3;

/** The factor from seconds measured between two readings to reference
 *  seconds. */
double
hostScale(double before, double after)
{
    return kNominalS / (0.5 * (before + after));
}

/** Peak resident set of this process, MiB (VmHWM). */
double
peakRssMib()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

// --- Spans -----------------------------------------------------------

/**
 * In-memory span log, written once at exit. Off unless --trace is
 * given; a disabled span costs one flag load.
 */
class Tracer
{
  public:
    struct Span
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        const char *name = "";
        std::string key;
        std::uint32_t tid = 0;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
    };

    static Tracer &
    instance()
    {
        static Tracer tracer;
        return tracer;
    }

    bool enabled() const { return enabled_; }
    void enable() { enabled_ = true; }

    std::uint64_t nextId() { return nextId_.fetch_add(1) + 1; }

    void
    record(Span span)
    {
        std::lock_guard<std::mutex> lk(mu_);
        spans_.push_back(std::move(span));
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return spans_.size();
    }

    /** Measured cost of recording one span, seconds. */
    double calibrate();

    /** Write every span as Chrome trace events (a JSON array). */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        std::lock_guard<std::mutex> lk(mu_);
        const long pid = static_cast<long>(::getpid());
        out << std::fixed << std::setprecision(3) << "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i == 0 ? "\n" : ",\n") << "{\"name\":\""
                << s.name << "\",\"ph\":\"X\",\"pid\":" << pid
                << ",\"tid\":" << s.tid << ",\"ts\":"
                << s.startNs / 1000.0
                << ",\"dur\":" << (s.endNs - s.startNs) / 1000.0
                << ",\"args\":{\"id\":" << s.id
                << ",\"parent\":" << s.parent << ",\"key\":\""
                << jsonEscape(s.key) << "\"}}";
        }
        out << "\n]\n";
        return static_cast<bool>(out);
    }

  private:
    Tracer() = default;

    bool enabled_ = false;
    std::atomic<std::uint64_t> nextId_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

std::int64_t
monotonicNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::uint32_t
threadTag()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t tag = ++next;
    return tag;
}

/** Open spans of this thread, innermost last (the parent links). */
thread_local std::vector<std::uint64_t> t_openSpans;

/** RAII span around one call into a layer. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name, std::string key = {})
        : on_(Tracer::instance().enabled())
    {
        if (!on_)
            return;
        span_.name = name;
        span_.key = std::move(key);
        span_.id = Tracer::instance().nextId();
        span_.parent = t_openSpans.empty() ? 0 : t_openSpans.back();
        span_.tid = threadTag();
        t_openSpans.push_back(span_.id);
        span_.startNs = monotonicNs();
    }

    ~SpanScope()
    {
        if (!on_)
            return;
        span_.endNs = monotonicNs();
        t_openSpans.pop_back();
        Tracer::instance().record(std::move(span_));
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    bool on_;
    Tracer::Span span_;
};

double
Tracer::calibrate()
{
    constexpr int kSpans = 20000;
    const std::size_t before = size();
    const auto t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i)
        SpanScope span("calibrate", "k");
    const double cost = secondsSince(t0) / kSpans;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.resize(before);
    return cost;
}

// --- Result line -----------------------------------------------------

/** Metrics of one run, in BENCHMARK.json's units. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, double>> endToEnd;
    std::vector<std::pair<std::string, double>> perLayer;

    void e2e(const std::string &n, double v) { endToEnd.emplace_back(n, v); }
    void layer(const std::string &n, double v) { perLayer.emplace_back(n, v); }

    void
    print() const
    {
        const auto group = [](const auto &metrics) {
            std::string out = "{";
            for (std::size_t i = 0; i < metrics.size(); ++i) {
                char num[64];
                const double v = std::isfinite(metrics[i].second)
                                     ? metrics[i].second
                                     : 0.0;
                std::snprintf(num, sizeof num, "%.17g", v);
                out += (i == 0 ? "\"" : ", \"") + metrics[i].first +
                       "\": " + num;
            }
            return out + "}";
        };
        std::printf("{\"attempted\": %llu, \"failed\": %llu, "
                    "\"end_to_end\": %s, \"per_layer\": %s}\n",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed),
                    group(endToEnd).c_str(), group(perLayer).c_str());
        std::fflush(stdout);
    }
};

constexpr int kSetups = 25;

/**
 * Set up kSetups times and return the median time (the set-up metric).
 * @p teardown undoes all but the last set-up, outside the timing.
 */
template <typename Setup, typename Teardown>
double
medianSetup(Setup &&setup, Teardown &&teardown)
{
    std::vector<double> times;
    for (int i = 0; i < kSetups; ++i) {
        if (i > 0)
            teardown();
        SpanScope span("setup", std::to_string(i));
        const auto t0 = Clock::now();
        setup();
        times.push_back(secondsSince(t0));
    }
    return median(times);
}

// --- advise-mixed ----------------------------------------------------

const ServeObjective kObjectives[] = {ServeObjective::WS,
                                      ServeObjective::FI,
                                      ServeObjective::HS};

std::string
formatTlp(const TlpCombo &combo)
{
    std::string out;
    for (std::size_t i = 0; i < combo.size(); ++i)
        out += (i == 0 ? "" : ",") + std::to_string(combo[i]);
    return out;
}

template <typename T>
void
seededShuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.nextBounded(i)]);
}

/** The value of `name=` in a reply line ("" when absent). */
std::string
replyField(const std::string &reply, const std::string &name)
{
    const std::string tag = " " + name + "=";
    const std::size_t at = reply.find(tag);
    if (at == std::string::npos)
        return "";
    const std::size_t from = at + tag.size();
    return reply.substr(from, reply.find(' ', from) - from);
}

/** What the daemon must answer for one pair, per objective. */
struct Expected
{
    std::string tlp[3];
    double score[3] = {0.0, 0.0, 0.0};
};

Expected
expectedAnswer(const ComboTable &table, const std::vector<double> &alone)
{
    static const OptTarget kTargets[] = {OptTarget::SdWS, OptTarget::SdFI,
                                         OptTarget::SdHS};
    Expected e;
    for (int o = 0; o < 3; ++o) {
        const TlpCombo best = Exhaustive::argmax(table, kTargets[o], alone);
        e.tlp[o] = formatTlp(best);
        e.score[o] = Exhaustive::value(table, best, kTargets[o], alone);
    }
    return e;
}

Workload
canonicalPair(std::string a, std::string b)
{
    if (b < a)
        std::swap(a, b);
    return makePair(a, b);
}

/** One blocking request/reply on a connected socket. */
class Connection
{
  public:
    bool
    open(const std::string &path)
    {
        auto conn = netConnectUnix(path);
        if (!conn.ok())
            return false;
        fd_ = std::move(conn.value());
        return true;
    }

    bool
    roundTrip(const std::string &request, std::string &reply)
    {
        return servefmt::sendFrame(fd_.get(), request) &&
               servefmt::recvFrame(fd_.get(), reader_, reply);
    }

  private:
    UniqueFd fd_;
    servefmt::FrameReader reader_;
};

/**
 * A bare Unix-socket round trip to a thread of this program that echoes
 * one byte: the host's share of a warm round trip (two wake-ups and four
 * system calls), which no change to the daemon moves.
 */
class Echo
{
  public:
    Echo()
    {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
            fatal("advise-mixed: socketpair failed");
        mine_.reset(fds[0]);
        thread_ = std::thread([fd = UniqueFd(fds[1])] {
            char c = 0;
            while (::read(fd.get(), &c, 1) == 1 &&
                   ::write(fd.get(), &c, 1) == 1) {
            }
        });
    }

    ~Echo()
    {
        mine_.reset(); // the echo thread reads end-of-file and returns
        thread_.join();
    }

    Echo(const Echo &) = delete;
    Echo &operator=(const Echo &) = delete;

    /** Seconds of one round trip, or a negative value on error. */
    double
    roundTrip()
    {
        char c = 'e';
        const auto t0 = Clock::now();
        if (::write(mine_.get(), &c, 1) != 1 ||
            ::read(mine_.get(), &c, 1) != 1)
            return -1.0;
        return secondsSince(t0);
    }

  private:
    UniqueFd mine_;
    std::thread thread_;
};

/** One daemon life: store, service and server over one socket. */
struct Daemon
{
    std::unique_ptr<DiskCache> cache;
    std::unique_ptr<AdvisorService> service;
    std::unique_ptr<AdvisorServer> server;
    double openS = 0.0;

    void
    start(const Runner &runner, const std::string &store,
          const std::string &sock)
    {
        {
            SpanScope span("store_open");
            const auto t0 = Clock::now();
            cache = std::make_unique<DiskCache>(store);
            openS = secondsSince(t0);
        }
        SpanScope span("service_start");
        service = std::make_unique<AdvisorService>(runner, *cache);
        AdvisorServer::Options opts;
        opts.socketPath = sock;
        server = std::make_unique<AdvisorServer>(*service, opts);
        const Status started = server->start();
        if (!started.ok())
            fatal(started.error());
        Connection probe;
        std::string reply;
        if (!probe.open(sock) || !probe.roundTrip("PING", reply) ||
            reply != "OK PONG")
            fatal("advise-mixed: restarted daemon does not answer PING");
    }

    void
    stop()
    {
        if (server)
            server->stop();
        server.reset();
        service.reset();
        cache.reset();
    }
};

/** Per-connection log of the warm closed-loop clients. */
struct WarmLog
{
    std::vector<double> adviseS;
    std::vector<double> adviseAt; ///< Send time, seconds into the run.
    std::vector<double> pairS;
    std::vector<double> echoS;
    std::vector<double> echoAt;
    std::uint64_t errors = 0;
};

struct ColdSample
{
    std::string pair;
    int objective = 0;
    std::string tlp;
    double latencyS = 0.0;
    double lagS = 0.0;
    double sentAt = 0.0, doneAt = 0.0; ///< Seconds into the run.
    bool ok = false;
};

/** Pause of each warm client between requests. */
constexpr auto kWarmThink = std::chrono::microseconds(100);
/** Every this many round trips of a warm client is an Echo. */
constexpr std::uint64_t kEchoEvery = 8;
/**
 * Warm round trips are reported in reference seconds for a host where
 * an Echo round trip takes kNominalEchoS. Most of a warm round trip is
 * the two wake-ups, which the host's load moves more than its speed:
 * over ten runs on the host in README.md, raw medians spread by 23%
 * and medians scaled by the reference loop by 9%.
 */
constexpr double kNominalEchoS = 20e-6;

Result
runAdviseMixed(std::uint64_t seed, double seconds, bool smoke)
{
    const std::size_t warm_apps = smoke ? 2 : 4;
    const std::size_t cold_pairs = smoke ? 1 : 10;
    const std::string store = "store";
    const std::string sock = "sock";

    // Warm apps come from a fixed pool of one or two apps per EB group;
    // the other twenty apps form ten fixed cold pairs, so every run
    // fills the same pairs and their costs do not vary with the seed.
    // The seed picks four pool apps and the order of the cold pairs.
    const std::vector<std::string> pool = {"BFS", "FFT", "BLK",
                                           "TRD", "JPEG", "LUD"};
    Rng rng(seed);
    std::vector<std::string> warm = pool;
    seededShuffle(warm, rng);
    warm.resize(warm_apps);
    std::vector<Workload> warm_pairs;
    for (std::size_t i = 0; i < warm.size(); ++i)
        for (std::size_t j = i + 1; j < warm.size(); ++j)
            warm_pairs.push_back(canonicalPair(warm[i], warm[j]));
    std::vector<std::string> rest;
    for (const AppProfile &p : appCatalog())
        if (std::find(pool.begin(), pool.end(), p.name) == pool.end())
            rest.push_back(p.name);
    std::vector<Workload> cold;
    for (std::size_t k = 0; k + 1 < rest.size(); k += 2)
        cold.push_back(canonicalPair(rest[k], rest[k + 1]));
    seededShuffle(cold, rng);
    cold.resize(cold_pairs);

    Result res;
    const Runner runner(Experiment::standardConfig(2),
                        Experiment::standardOptions());

    // Prefill: the daemon's previous life, through the same
    // profile + sweep calls a cold fill makes.
    std::map<std::string, Expected> expected;
    double prefill_s = 0.0;
    {
        SpanScope span("prefill");
        const auto t0 = Clock::now();
        DiskCache cache(store);
        ProfileDb profiles(runner, cache);
        Exhaustive exhaustive(runner, cache);
        for (const Workload &wl : warm_pairs) {
            std::vector<double> alone;
            for (const std::string &name : wl.appNames) {
                SpanScope s("ProfileDb::profile", name);
                alone.push_back(profiles.profile(findApp(name)).ipcAtBest);
            }
            SpanScope s("Exhaustive::sweep", wl.name);
            expected[wl.name] = expectedAnswer(exhaustive.sweep(wl), alone);
        }
        prefill_s = secondsSince(t0);
    }
    // A restarted daemon starts without in-memory warm checkpoints.
    WarmStateCache::instance().clear();

    const double setup_before = readHost();
    Daemon daemon;
    std::vector<double> open_times;
    const double setup_s = medianSetup(
        [&] {
            daemon.start(runner, store, sock);
            open_times.push_back(daemon.openS);
        },
        [&] { daemon.stop(); });
    const double setup_after = readHost();
    // Host readings, taken at the start, in the gaps between cold
    // requests and at the end; the cold client writes them while the
    // run lasts. A fill spreads over the job pool's threads, so each
    // reading runs as many threads at once.
    const int fill_threads = static_cast<int>(JobPool::defaultJobs());
    struct Reading
    {
        double at;      ///< Seconds into the run.
        double seconds; ///< The reading.
    };
    std::vector<Reading> readings = {{0.0, readHost(9, fill_threads)}};
    const std::size_t entries_loaded =
        daemon.cache->loadReport().entriesLoaded;
    const auto ws0 = WarmStateCache::instance().stats();
    const std::uint64_t hits0 = daemon.cache->hits();
    const std::uint64_t misses0 = daemon.cache->misses();

    // Measure: two warm closed-loop connections, one open-loop cold one.
    // Each warm client thinks kWarmThink between requests, so the two
    // leave most of the cores to the fills instead of spinning them.
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    const std::map<std::string, Expected> &answers = expected;
    std::vector<WarmLog> logs(2);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < logs.size(); ++c) {
        clients.emplace_back([&, c] {
            WarmLog &log = logs[c];
            Rng r(hashIds(seed, c + 1));
            Connection conn;
            if (!conn.open(sock)) {
                ++log.errors;
                return;
            }
            std::string reply;
            std::uint64_t sent = 0;
            std::optional<SpanScope> batch;
            Echo echo;
            for (; Clock::now() < deadline;
                 std::this_thread::sleep_for(kWarmThink)) {
                // One span per 256 requests keeps the trace small.
                if (sent % 256 == 0) {
                    batch.reset();
                    batch.emplace("warm_batch", "conn" + std::to_string(c));
                }
                if (++sent % kEchoEvery == 0) {
                    const double s = echo.roundTrip();
                    if (s < 0.0) {
                        ++log.errors;
                        return;
                    }
                    log.echoS.push_back(s);
                    log.echoAt.push_back(secondsSince(t0));
                    continue;
                }
                const int obj = static_cast<int>(r.nextBounded(3));
                const std::string obj_tok =
                    serveObjectiveName(kObjectives[obj]);
                if (r.nextBounded(10) == 0) {
                    // PAIR over three distinct warm apps.
                    std::vector<std::string> pick = warm;
                    seededShuffle(pick, r);
                    pick.resize(std::min<std::size_t>(3, pick.size()));
                    std::string req = "PAIR";
                    for (const std::string &a : pick)
                        req += " " + a;
                    req += " OBJ " + obj_tok;
                    const auto q0 = Clock::now();
                    if (!conn.roundTrip(req, reply)) {
                        ++log.errors;
                        return;
                    }
                    log.pairS.push_back(secondsSince(q0));
                    std::string best;
                    double best_score = -1.0;
                    for (std::size_t i = 0; i < pick.size(); ++i) {
                        for (std::size_t j = i + 1; j < pick.size(); ++j) {
                            const Workload wl =
                                canonicalPair(pick[i], pick[j]);
                            const double s = answers.at(wl.name).score[obj];
                            if (s > best_score) {
                                best_score = s;
                                best = wl.name;
                            }
                        }
                    }
                    if (reply.rfind("OK PAIR", 0) != 0 ||
                        replyField(reply, "best") != best)
                        ++log.errors;
                    continue;
                }
                const Workload &wl =
                    warm_pairs[r.nextBounded(warm_pairs.size())];
                const bool swap = r.nextBounded(2) == 1;
                const std::string req =
                    "ADVISE " + wl.appNames[swap ? 1 : 0] + " " +
                    wl.appNames[swap ? 0 : 1] + " OBJ " + obj_tok;
                const auto q0 = Clock::now();
                if (!conn.roundTrip(req, reply)) {
                    ++log.errors;
                    return;
                }
                log.adviseS.push_back(secondsSince(q0));
                log.adviseAt.push_back(
                    std::chrono::duration<double>(q0 - t0).count());
                if (reply.rfind("OK ADVISE", 0) != 0 ||
                    replyField(reply, "tlp") != answers.at(wl.name).tlp[obj])
                    ++log.errors;
            }
        });
    }

    // The cold requests are spread evenly over the run. At 25 s a fill
    // (about 1.4 s here) ends well before the next request is due.
    const double interval = seconds / static_cast<double>(cold.size());
    std::vector<ColdSample> cold_log;
    std::thread cold_client([&] {
        Connection conn;
        const bool connected = conn.open(sock);
        Rng r(hashIds(seed, 0xc01d));
        for (std::size_t k = 0; k < cold.size(); ++k) {
            const auto due =
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             (static_cast<double>(k) + 0.5) * interval));
            if (due >= deadline)
                break;
            std::this_thread::sleep_until(due);
            ColdSample s;
            s.pair = cold[k].name;
            s.objective = static_cast<int>(r.nextBounded(3));
            s.lagS = secondsSince(due);
            const bool swap = r.nextBounded(2) == 1;
            const std::string req =
                "ADVISE " + cold[k].appNames[swap ? 1 : 0] + " " +
                cold[k].appNames[swap ? 0 : 1] + " OBJ " +
                serveObjectiveName(kObjectives[s.objective]) +
                " WAIT 600000";
            std::string reply;
            SpanScope span("cold_advise", s.pair);
            s.sentAt = secondsSince(t0);
            s.ok = connected && conn.roundTrip(req, reply) &&
                   reply.rfind("OK ADVISE", 0) == 0;
            s.latencyS = secondsSince(due);
            s.doneAt = secondsSince(t0);
            s.tlp = replyField(reply, "tlp");
            cold_log.push_back(s);
            // A reading in the gap before the next request, if it fits.
            if (due + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(interval - 0.25)) >
                Clock::now())
                readings.push_back(
                    {secondsSince(t0), readHost(9, fill_threads)});
        }
    });
    for (std::thread &c : clients)
        c.join();
    cold_client.join();
    daemon.service->drainFills();
    const AdvisorService::Stats stats = daemon.service->stats();
    const auto ws1 = WarmStateCache::instance().stats();
    daemon.server->stop();
    readings.push_back({secondsSince(t0), readHost(9, fill_threads)});
    // Scale for work between `from` and `to`: the readings next to it.
    const auto scaleAround = [&](double from, double to) {
        double before = readings.front().seconds;
        double after = readings.back().seconds;
        for (const Reading &r : readings) {
            if (r.at <= from)
                before = r.seconds;
            if (r.at >= to) {
                after = r.seconds;
                break;
            }
        }
        return hostScale(before, after);
    };

    // Cold answers must match what the store now holds for the pair.
    std::uint64_t wrong_cold = 0;
    {
        SpanScope span("verify");
        const ProfileDb probe_profiles(runner, *daemon.cache);
        const Exhaustive probe(runner, *daemon.cache);
        for (const ColdSample &s : cold_log) {
            const Workload wl = makePair(
                s.pair.substr(0, s.pair.find('_')),
                s.pair.substr(s.pair.find('_') + 1));
            std::vector<double> alone;
            for (const std::string &name : wl.appNames) {
                const auto p = probe_profiles.profileCached(findApp(name));
                alone.push_back(p ? p->ipcAtBest : 0.0);
            }
            const auto table = probe.sweepCached(wl);
            if (!s.ok || !table ||
                expectedAnswer(*table, alone).tlp[s.objective] != s.tlp)
                ++wrong_cold;
        }
    }

    // Warm round trips and Echoes, split by whether a cold fill was
    // running when they were sent: [0] none, [1] one.
    const auto filling = [&](double at) {
        return std::any_of(cold_log.begin(), cold_log.end(),
                           [at](const ColdSample &c) {
                               return c.sentAt <= at && at < c.doneAt;
                           });
    };
    std::vector<double> rtt_by_fill[2], echo_by_fill[2];
    std::vector<double> warm_rtt, pair_s, cold_s, lags, echo_s;
    std::uint64_t errors = 0;
    for (const WarmLog &log : logs) {
        for (std::size_t i = 0; i < log.adviseS.size(); ++i)
            rtt_by_fill[filling(log.adviseAt[i])].push_back(log.adviseS[i]);
        for (std::size_t i = 0; i < log.echoS.size(); ++i)
            echo_by_fill[filling(log.echoAt[i])].push_back(log.echoS[i]);
        warm_rtt.insert(warm_rtt.end(), log.adviseS.begin(),
                        log.adviseS.end());
        pair_s.insert(pair_s.end(), log.pairS.begin(), log.pairS.end());
        echo_s.insert(echo_s.end(), log.echoS.begin(), log.echoS.end());
        errors += log.errors;
    }
    for (const ColdSample &s : cold_log) {
        cold_s.push_back(s.latencyS * scaleAround(s.sentAt, s.doneAt));
        lags.push_back(s.lagS);
    }
    res.attempted = warm_rtt.size() + pair_s.size() + cold_log.size();
    res.failed = errors + wrong_cold;

    // warm_s weighs the round trips beside a fill and those without one
    // equally, each half scaled by its own Echoes: the share of the run
    // that fills take moves with the host's speed (61-83% over ten runs
    // in README.md), and a round trip beside a fill is a quarter shorter
    // against its Echo than one without. Mixed by that share, the
    // scaled median spread by 9% over those runs; weighed equally, by
    // 2-6% over three sets of ten.
    std::vector<double> warm_ref;
    for (int f = 0; f < 2; ++f) {
        if (!rtt_by_fill[f].empty() && !echo_by_fill[f].empty())
            warm_ref.push_back(median(rtt_by_fill[f]) * kNominalEchoS /
                               median(echo_by_fill[f]));
    }
    res.e2e("cold_s", trimmedMean(cold_s));
    res.e2e("warm_s", trimmedMean(warm_ref));
    res.e2e("peak_rss_mib", peakRssMib());
    res.e2e("setup_s",
            setup_s * hostScale(setup_before, setup_after));

    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    res.layer("harness.advisor.requests", u(stats.requests));
    res.layer("harness.advisor.hits", u(stats.hits));
    res.layer("harness.advisor.misses", u(stats.misses));
    res.layer("harness.advisor.joined", u(stats.joined));
    res.layer("harness.advisor.fills_completed", u(stats.fillsCompleted));
    res.layer("harness.advisor.fills_failed", u(stats.fillsFailed));
    res.layer("harness.advisor.server_p50_us", stats.p50us);
    res.layer("harness.advisor.server_p99_us", stats.p99us);
    res.layer("harness.advisor.warm_p99_us", quantile(warm_rtt, 0.99) * 1e6);
    res.layer("harness.advisor.warm_beside_fill_p50_us",
              median(rtt_by_fill[1]) * 1e6);
    res.layer("harness.advisor.warm_alone_p50_us",
              median(rtt_by_fill[0]) * 1e6);
    res.layer("harness.advisor.pair_p50_us", median(pair_s) * 1e6);
    res.layer("harness.advisor.warm_qps",
              u(warm_rtt.size() + pair_s.size()) / seconds);
    res.layer("harness.advisor.warm_samples", u(warm_rtt.size()));
    res.layer("harness.advisor.cold_samples", u(cold_s.size()));
    res.layer("harness.advisor.cold_send_lag_s",
              lags.empty() ? 0.0 : *std::max_element(lags.begin(), lags.end()));
    res.layer("harness.advisor.prefill_s", prefill_s);
    res.layer("harness.store.open_s", median(open_times));
    res.layer("harness.store.entries_loaded", u(entries_loaded));
    res.layer("harness.store.hits", u(daemon.cache->hits() - hits0));
    res.layer("harness.store.misses", u(daemon.cache->misses() - misses0));
    res.layer("harness.store.bytes_written", u(daemon.cache->bytesWritten()));
    res.layer("harness.store.append_batches",
              u(daemon.cache->appendBatches()));
    res.layer("harness.store.entries_appended",
              u(daemon.cache->entriesAppended()));
    res.layer("harness.warm_state.hits", u(ws1.hits - ws0.hits));
    res.layer("harness.warm_state.misses", u(ws1.misses - ws0.misses));
    res.layer("harness.warm_state.resumes", u(ws1.resumes - ws0.resumes));
    res.layer("harness.warm_state.evictions",
              u(ws1.evictions - ws0.evictions));
    res.layer("harness.warm_state.retained_mb",
              u(ws1.retainedBytes) / (1024.0 * 1024.0));
    res.layer("host.ref_ms", 0.5 * (setup_before + setup_after) * 1e3);
    res.layer("host.echo_us", median(echo_s) * 1e6);
    daemon.stop();
    return res;
}

// --- simloop ---------------------------------------------------------

struct SimCase
{
    std::string name;
    std::string a, b;
    std::uint32_t tlp = 1;
};

std::vector<SimCase>
simCases()
{
    std::vector<SimCase> cases;
    for (const auto &[kind, a, b] :
         {std::tuple{"mem", "BFS", "FFT"}, std::tuple{"busy", "BLK", "RAY"}}) {
        for (const std::uint32_t tlp : {1u, 4u, 24u}) {
            cases.push_back({std::string(kind) + "-tlp" + std::to_string(tlp),
                             a, b, tlp});
        }
    }
    return cases;
}

/** Trace-stream variants a seed selects (reference digests exist for each). */
constexpr std::uint64_t kSimVariants = 8;

/**
 * The seed selects one of kSimVariants instruction streams for the same
 * two pairs: every app keeps its catalog parameters and gets another
 * stream seed, so the work per cycle stays alike across seeds.
 */
std::vector<std::unique_ptr<Gpu>>
buildMachines(const std::vector<SimCase> &cases, std::uint64_t variant)
{
    std::vector<std::unique_ptr<Gpu>> gpus;
    for (const SimCase &c : cases) {
        AppProfile a = findApp(c.a);
        AppProfile b = findApp(c.b);
        a.seed += static_cast<std::uint32_t>(variant * 1000);
        b.seed += static_cast<std::uint32_t>(variant * 1000);
        gpus.push_back(std::make_unique<Gpu>(Experiment::standardConfig(2),
                                             std::vector{a, b}));
        gpus.back()->setAppTlp(0, c.tlp);
        gpus.back()->setAppTlp(1, c.tlp);
    }
    return gpus;
}

Cycle simCycles(bool smoke) { return smoke ? 20'000 : 100'000; }

std::string
digestKey(Cycle cycles, std::uint64_t variant, const std::string &name,
          const char *phase)
{
    return std::to_string(cycles) + " " + std::to_string(variant) + " " +
           name + " " + phase;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Core-cycle accounting summed over every core of @p gpu. */
struct CoreCycles
{
    double idle = 0.0, memWait = 0.0, stall = 0.0, total = 0.0;

    void
    add(const Gpu &gpu)
    {
        for (CoreId c = 0; c < gpu.numCores(); ++c) {
            idle += static_cast<double>(gpu.core(c).idleCycles());
            memWait += static_cast<double>(gpu.core(c).memWaitCycles());
            stall += static_cast<double>(gpu.core(c).stallCycles());
            total += static_cast<double>(gpu.now());
        }
    }
};

/** Print the reference digests of every variant (expected/ file rows). */
int
recordDigests(bool smoke)
{
    const std::vector<SimCase> cases = simCases();
    const Cycle cycles = simCycles(smoke);
    for (std::uint64_t v = 0; v < kSimVariants; ++v) {
        auto gpus = buildMachines(cases, v);
        for (std::size_t i = 0; i < cases.size(); ++i) {
            gpus[i]->run(cycles);
            std::printf("%s %s\n",
                        digestKey(cycles, v, cases[i].name, "cold").c_str(),
                        hex(goldenDigest(*gpus[i])).c_str());
            gpus[i]->reset(false);
            gpus[i]->run(cycles);
            std::printf("%s %s\n",
                        digestKey(cycles, v, cases[i].name, "warm").c_str(),
                        hex(goldenDigest(*gpus[i])).c_str());
        }
    }
    return 0;
}

Result
runSimloop(std::uint64_t seed, double seconds, bool smoke,
           const std::string &expected_dir)
{
    std::map<std::string, std::string> reference;
    {
        std::ifstream in(expected_dir + "/simloop_digests.txt");
        std::string line;
        while (std::getline(in, line)) {
            const std::size_t sp = line.rfind(' ');
            if (sp != std::string::npos)
                reference[line.substr(0, sp)] = line.substr(sp + 1);
        }
    }
    const std::vector<SimCase> cases = simCases();
    const std::uint64_t variant = seed % kSimVariants;
    const Cycle cycles = simCycles(smoke);

    Result res;
    // Set-up builds the six machines. It is timed kSetupsPerRound times
    // more in every round, on machines then thrown away, because its
    // time drifts over seconds: set-ups spread over the run steady the
    // median that setup_s reports.
    std::vector<double> setup_times;
    const auto setUp = [&] {
        SpanScope span("setup", std::to_string(setup_times.size()));
        const auto s0 = Clock::now();
        auto built = buildMachines(cases, variant);
        setup_times.push_back(secondsSince(s0));
        return built;
    };
    constexpr int kSetupsPerRound = 3;
    std::vector<std::unique_ptr<Gpu>> gpus = setUp();

    // Per case and phase, the reference seconds of each round. A short
    // host reading follows every run, so each run is scaled by the
    // readings on either side of it.
    std::vector<std::vector<double>> cold_s(cases.size()),
        warm_s(cases.size());
    std::vector<double> readings = {readHost(kShortReading)};
    std::vector<double> case_skip(cases.size(), 0.0);
    double instructions = 0.0, busy_s = 0.0;
    std::size_t rounds = 0;
    CoreCycles cc;
    const auto timedRun = [&](Gpu &gpu, const SimCase &c,
                              const char *phase) {
        double dt = 0.0;
        {
            SpanScope span("Gpu::run", c.name + "/" + phase);
            const auto t0 = Clock::now();
            gpu.run(cycles);
            dt = secondsSince(t0);
        }
        const double before = readings.back();
        readings.push_back(readHost(kShortReading));
        const double ref_s = dt * hostScale(before, readings.back());
        busy_s += ref_s;
        instructions +=
            static_cast<double>(gpu.appInstrs(0) + gpu.appInstrs(1));
        cc.add(gpu);
        ++res.attempted;
        const auto it =
            reference.find(digestKey(cycles, variant, c.name, phase));
        if (it == reference.end() || it->second != hex(goldenDigest(gpu)))
            ++res.failed;
        return ref_s;
    };
    // Rounds repeat while another one fits in the run. Every round runs
    // the machines built in set-up: reset(true) empties their caches, so
    // a cold run replays a fresh machine's first run without the page
    // faults of new allocations.
    const auto t0 = Clock::now();
    for (double round_s = 0.0;
         rounds == 0 || secondsSince(t0) + round_s <= seconds; ++rounds) {
        const auto r0 = Clock::now();
        for (int k = 0; k < kSetupsPerRound; ++k)
            setUp();
        for (std::size_t i = 0; i < cases.size(); ++i) {
            Gpu &gpu = *gpus[i];
            gpu.reset(true);
            cold_s[i].push_back(timedRun(gpu, cases[i], "cold"));
            case_skip[i] = static_cast<double>(gpu.fastForwardedCycles()) /
                           static_cast<double>(gpu.now());
            gpu.reset(false);
            warm_s[i].push_back(timedRun(gpu, cases[i], "warm"));
        }
        round_s = secondsSince(r0);
    }

    // Per case, the trimmed mean of its rounds.
    double cold_total = 0.0, warm_total = 0.0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        cold_total += trimmedMean(cold_s[i]);
        warm_total += trimmedMean(warm_s[i]);
    }
    res.e2e("cold_s", cold_total);
    res.e2e("warm_s", warm_total);
    res.e2e("peak_rss_mib", peakRssMib());
    res.e2e("setup_s", median(setup_times) * kNominalS / median(readings));

    for (std::size_t i = 0; i < cases.size(); ++i) {
        res.layer("sim." + cases[i].name + ".mcycles_per_s",
                  static_cast<double>(cycles) / trimmedMean(cold_s[i]) / 1e6);
        res.layer("sim." + cases[i].name + ".ff_skipped_frac", case_skip[i]);
    }
    res.layer("sim.instructions",
              instructions / static_cast<double>(rounds));
    res.layer("sim.minstr_per_s", instructions / busy_s / 1e6);
    res.layer("sim.idle_frac", cc.idle / cc.total);
    res.layer("sim.mem_wait_frac", cc.memWait / cc.total);
    res.layer("sim.stall_frac", cc.stall / cc.total);
    res.layer("host.ref_ms", median(readings) * 1e3);
    return res;
}

// --- fill-shared's warm read -----------------------------------------

/**
 * What a warm reader of the store the fill-shared peers filled does,
 * in-process: open the store and assemble fig01's BFS+FFT table and
 * both alone profiles from it, with the advisor's store-only probes.
 * A fig01 process doing the same takes about 3 ms, most of it process
 * start, whose drift the reference loop does not track. Each read must
 * find the whole table and give fig01's optWS and optFI combinations.
 * Reads repeat for @p seconds in blocks of kReadBlockS with a short
 * host reading after each block; the result is the trimmed mean of the
 * blocks' median reads, each scaled by the readings on either side.
 */
constexpr double kReadBlockS = 0.02;

Result
runReadStore(const std::string &store, double seconds,
             const std::string &expected_dir)
{
    std::string want[2];
    {
        // The rows "| optWS | (1,4) | ..." of the expected figure.
        std::ifstream in(expected_dir + "/fig01_motivation.txt");
        std::string line;
        while (std::getline(in, line)) {
            for (const auto &[i, name] : {std::pair{0, "| optWS "},
                                          std::pair{1, "| optFI "}}) {
                if (line.rfind(name, 0) == 0) {
                    const std::size_t open = line.find('(');
                    want[i] = line.substr(open + 1,
                                          line.find(')', open) - open - 1);
                }
            }
        }
    }
    const Runner runner(Experiment::standardConfig(2),
                        Experiment::standardOptions());
    const Workload wl = makePair("BFS", "FFT");
    Result res;
    const auto read = [&] {
        SpanScope span("warm_read", wl.name);
        const auto r0 = Clock::now();
        DiskCache cache(store);
        const ProfileDb profiles(runner, cache);
        const Exhaustive sweeps(runner, cache);
        const auto table = sweeps.sweepCached(wl);
        bool complete = table.has_value();
        std::vector<double> alone;
        for (const std::string &name : wl.appNames) {
            const auto p = profiles.profileCached(findApp(name));
            complete = complete && p.has_value();
            alone.push_back(p ? p->ipcAtBest : 0.0);
        }
        const double dt = secondsSince(r0);
        ++res.attempted;
        if (!complete ||
            formatTlp(Exhaustive::argmax(*table, OptTarget::SdWS, alone)) !=
                want[0] ||
            formatTlp(Exhaustive::argmax(*table, OptTarget::SdFI, alone)) !=
                want[1])
            ++res.failed;
        return dt;
    };
    std::vector<double> blocks;
    double before = readHost(kShortReading);
    const auto t0 = Clock::now();
    while (blocks.empty() || secondsSince(t0) < seconds) {
        std::vector<double> times;
        const auto b0 = Clock::now();
        while (times.empty() || secondsSince(b0) < kReadBlockS)
            times.push_back(read());
        const double after = readHost(kShortReading);
        blocks.push_back(median(times) * hostScale(before, after));
        before = after;
    }
    res.e2e("warm_s", trimmedMean(blocks));
    return res;
}

// --- main ------------------------------------------------------------

int
run(int argc, char **argv)
{
    std::string workload, sandbox, expected_dir, trace_path, store;
    std::uint64_t seed = 0, threads = 1;
    double seconds = 0.0;
    bool smoke = false, record = false, probe = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            if (!parseUint(argv[++i], seed))
                fatal("--seed needs a whole number");
        } else if (arg == "--seconds" && has_value) {
            seconds = std::stod(argv[++i]);
        } else if (arg == "--sandbox" && has_value) {
            sandbox = argv[++i];
        } else if (arg == "--expected" && has_value) {
            expected_dir = argv[++i];
        } else if (arg == "--trace" && has_value) {
            trace_path = argv[++i];
        } else if (arg == "--store" && has_value) {
            store = argv[++i];
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--record-digests") {
            record = true;
        } else if (arg == "--reference") {
            probe = true;
        } else if (arg == "--threads" && has_value) {
            if (!parseUint(argv[++i], threads) || threads == 0 || threads > 64)
                fatal("--threads needs a whole number from 1 to 64");
        } else {
            fatal("unknown argument '" + arg + "'");
        }
    }
    if (record)
        return recordDigests(smoke);
    if (probe) {
        std::printf("%.9f %.9f\n",
                    readHost(9, static_cast<int>(threads)), kNominalS);
        return 0;
    }
    if (sandbox.empty() || expected_dir.empty() || !(seconds > 0.0))
        fatal("need --sandbox, --expected and a positive --seconds");
    // The socket and store live in the sandbox under short relative
    // names: a Unix socket path must fit in 108 bytes.
    if (::chdir(sandbox.c_str()) != 0)
        fatal("cannot enter sandbox '" + sandbox + "'");

    double span_cost = 0.0;
    if (!trace_path.empty()) {
        Tracer::instance().enable();
        span_cost = Tracer::instance().calibrate();
    }
    const auto t0 = Clock::now();
    Result res;
    if (workload == "advise-mixed")
        res = runAdviseMixed(seed, seconds, smoke);
    else if (workload == "simloop")
        res = runSimloop(seed, seconds, smoke, expected_dir);
    else if (workload == "read-store" && !store.empty())
        res = runReadStore(store, seconds, expected_dir);
    else
        fatal("unknown workload '" + workload + "'");
    if (!trace_path.empty()) {
        res.layer("trace.spans",
                  static_cast<double>(Tracer::instance().size()));
        res.layer("trace.overhead_frac",
                  static_cast<double>(Tracer::instance().size()) *
                      span_cost / secondsSince(t0));
        if (!Tracer::instance().write(trace_path))
            fatal("cannot write trace '" + trace_path + "'");
    }
    res.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runGuarded("ebm_bench", [&] { return run(argc, argv); });
}
