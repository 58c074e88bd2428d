#include "harness/advisor_service.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <utility>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/runtime_config.hpp"
#include "harness/warm_state.hpp"
#include "workload/app_catalog.hpp"
#include "workload/workload_suite.hpp"

namespace ebm {

const char *
serveObjectiveName(ServeObjective o)
{
    switch (o) {
      case ServeObjective::FI: return "FI";
      case ServeObjective::HS: return "HS";
      default: return "WS";
    }
}

std::optional<ServeObjective>
parseServeObjective(const std::string &s)
{
    if (s == "WS")
        return ServeObjective::WS;
    if (s == "FI")
        return ServeObjective::FI;
    if (s == "HS")
        return ServeObjective::HS;
    return std::nullopt;
}

// ---------------------------------------------------------------------
// AdvisorService
// ---------------------------------------------------------------------

AdvisorService::AdvisorService(const Runner &runner, DiskCache &cache,
                               Options opts)
    : runner_(runner), cache_(cache), opts_(std::move(opts)),
      probeProfiles_(runner, cache), probe_(runner, cache),
      profiles_(runner, cache), exhaustive_(runner, cache)
{
    if (opts_.fillJobs != 0) {
        profiles_.setJobs(opts_.fillJobs);
        exhaustive_.setJobs(opts_.fillJobs);
    }
    fillThread_ = std::thread([this] { fillLoop(); });
}

AdvisorService::~AdvisorService()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopping_ = true;
    }
    fillQueued_.notify_all();
    fillDone_.notify_all();
    fillThread_.join();
}

AdvisorService::QueryResult
AdvisorService::readyResult(Answer answer) const
{
    QueryResult r;
    r.state = State::Ready;
    r.answer = std::move(answer);
    return r;
}

AdvisorService::Answer
AdvisorService::assemble(const Workload &wl, const ComboTable &table,
                         const std::vector<AppAloneProfile> &profs) const
{
    std::vector<double> alone_ipcs;
    alone_ipcs.reserve(profs.size());
    Answer ans;
    ans.pair = wl.name;
    ans.apps = wl.appNames;
    for (const AppAloneProfile &p : profs) {
        alone_ipcs.push_back(p.ipcAtBest);
        ans.bestAloneTlp.push_back(p.bestTlp);
    }
    const auto choose = [&](OptTarget target) {
        Choice c;
        c.tlp = Exhaustive::argmax(table, target, alone_ipcs);
        c.ws = Exhaustive::value(table, c.tlp, OptTarget::SdWS,
                                 alone_ipcs);
        c.fi = Exhaustive::value(table, c.tlp, OptTarget::SdFI,
                                 alone_ipcs);
        c.hs = Exhaustive::value(table, c.tlp, OptTarget::SdHS,
                                 alone_ipcs);
        return c;
    };
    ans.ws = choose(OptTarget::SdWS);
    ans.fi = choose(OptTarget::SdFI);
    ans.hs = choose(OptTarget::SdHS);
    return ans;
}

std::optional<AdvisorService::Answer>
AdvisorService::tryAnswerFromStore(const Workload &wl)
{
    std::vector<AppAloneProfile> profs;
    profs.reserve(wl.appNames.size());
    for (const std::string &name : wl.appNames) {
        auto p = probeProfiles_.profileCached(findApp(name));
        if (!p)
            return std::nullopt;
        profs.push_back(std::move(*p));
    }
    const auto table = probe_.sweepCached(wl, opts_.levels);
    if (!table)
        return std::nullopt;
    Answer ans = assemble(wl, *table, profs);
    ans.source = Source::Store;
    return ans;
}

AdvisorService::QueryResult
AdvisorService::advise(const std::string &a, const std::string &b,
                       std::uint32_t wait_ms)
{
    std::string lo = a, hi = b;
    if (hi < lo)
        std::swap(lo, hi);
    return adviseCanonical(lo, hi, wait_ms);
}

AdvisorService::QueryResult
AdvisorService::adviseCanonical(const std::string &a,
                                const std::string &b,
                                std::uint32_t wait_ms)
{
    QueryResult r;
    for (const std::string &name : {a, b}) {
        if (!hasApp(name)) {
            r.error = {Errc::InvalidArgument,
                       "unknown application '" + name + "'"};
            return r;
        }
    }
    if (a == b) {
        r.error = {Errc::InvalidArgument,
                   "duplicate application '" + a + "'"};
        return r;
    }

    const Workload wl = makePair(a, b);
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++counters_.requests;
        const auto it = memo_.find(wl.name);
        if (it != memo_.end()) {
            ++counters_.hits;
            Answer ans = it->second;
            ans.source = Source::Memo;
            return readyResult(std::move(ans));
        }
    }

    // Store probe outside the service lock: DiskCache is internally
    // synchronized, and a cold probe is ~levels^2 hash lookups.
    if (auto stored = tryAnswerFromStore(wl)) {
        std::lock_guard<std::mutex> lk(mu_);
        ++counters_.hits;
        memo_.emplace(wl.name, *stored);
        return readyResult(std::move(*stored));
    }

    std::unique_lock<std::mutex> lk(mu_);
    // The fill thread may have finished this pair between the probe
    // above and re-acquiring the lock.
    if (const auto it = memo_.find(wl.name); it != memo_.end()) {
        ++counters_.hits;
        Answer ans = it->second;
        ans.source = Source::Memo;
        return readyResult(std::move(ans));
    }
    ++counters_.misses;
    std::uint64_t ticket = 0;
    const auto inf = inflight_.find(wl.name);
    if (inf != inflight_.end()) {
        // Single-flight: join the fill already queued or running.
        ticket = inf->second;
        ++counters_.joined;
    } else {
        ticket = nextTicket_++;
        tickets_[ticket] = TicketState{wl.name, State::Pending,
                                       {Errc::Internal, ""}};
        inflight_[wl.name] = ticket;
        fillQueue_.push_back(wl);
        ++counters_.fillsDispatched;
        fillQueued_.notify_one();
    }

    if (wait_ms > 0) {
        const bool resolved = fillDone_.wait_for(
            lk, std::chrono::milliseconds(wait_ms), [this, ticket] {
                return stopping_ ||
                       tickets_.at(ticket).state != State::Pending;
            });
        if (resolved && !stopping_) {
            const TicketState &ts = tickets_.at(ticket);
            if (ts.state == State::Failed) {
                r.error = ts.error;
                return r;
            }
            Answer ans = memo_.at(ts.pair);
            ans.source = Source::Fresh;
            return readyResult(std::move(ans));
        }
    }
    r.state = State::Pending;
    r.ticket = ticket;
    return r;
}

AdvisorService::QueryResult
AdvisorService::poll(std::uint64_t ticket)
{
    QueryResult r;
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = tickets_.find(ticket);
    if (it == tickets_.end()) {
        r.error = {Errc::InvalidArgument,
                   "unknown ticket " + std::to_string(ticket)};
        return r;
    }
    switch (it->second.state) {
      case State::Pending:
        r.state = State::Pending;
        r.ticket = ticket;
        return r;
      case State::Failed:
        r.error = it->second.error;
        return r;
      case State::Ready:
        break;
    }
    Answer ans = memo_.at(it->second.pair);
    ans.source = Source::Fresh;
    return readyResult(std::move(ans));
}

void
AdvisorService::fillLoop()
{
    for (;;) {
        Workload wl;
        {
            std::unique_lock<std::mutex> lk(mu_);
            fillQueued_.wait(lk, [this] {
                return stopping_ || !fillQueue_.empty();
            });
            if (fillQueue_.empty())
                return; // stopping_, and nothing left to fill.
            wl = fillQueue_.front();
            fillQueue_.pop_front();
        }

        bool ok = true;
        Error err{Errc::Internal, ""};
        Answer ans;
        // Attribute warm-checkpoint traffic to this fill: fills are
        // serialized on this thread and probe-side queries never run
        // the simulator, so the process-wide cache's counter movement
        // across the fill is exactly the fill's own usage (including
        // its worker threads').
        const WarmStateCache::Stats warmBefore =
            WarmStateCache::instance().stats();
        try {
            const std::vector<AppProfile> apps = resolveApps(wl);
            std::vector<AppAloneProfile> profs;
            profs.reserve(apps.size());
            for (const AppProfile &app : apps)
                profs.push_back(profiles_.profile(app));
            const ComboTable table = exhaustive_.sweep(wl, opts_.levels);
            ans = assemble(wl, table, profs);
            ans.source = Source::Fresh;
        } catch (const FatalError &e) {
            ok = false;
            err = e.error();
            warn("advisor fill for " + wl.name + " failed: " +
                 e.error().toString());
        }

        const WarmStateCache::Stats warmAfter =
            WarmStateCache::instance().stats();

        {
            std::lock_guard<std::mutex> lk(mu_);
            counters_.snapshotHits += warmAfter.hits - warmBefore.hits;
            counters_.snapshotMisses +=
                warmAfter.misses - warmBefore.misses;
            if (ok) {
                ++counters_.fillsCompleted;
                memo_[wl.name] = std::move(ans);
            } else {
                ++counters_.fillsFailed;
            }
            const auto inf = inflight_.find(wl.name);
            if (inf != inflight_.end()) {
                TicketState &ts = tickets_.at(inf->second);
                ts.state = ok ? State::Ready : State::Failed;
                ts.error = err;
                inflight_.erase(inf);
            }
        }
        fillDone_.notify_all();
    }
}

void
AdvisorService::drainFills()
{
    std::unique_lock<std::mutex> lk(mu_);
    fillDone_.wait(lk, [this] {
        return stopping_ ||
               (inflight_.empty() && fillQueue_.empty());
    });
}

AdvisorService::Stats
AdvisorService::stats() const
{
    Stats s;
    {
        std::lock_guard<std::mutex> lk(mu_);
        s = counters_;
        s.inflight = inflight_.size();
    }
    s.latencySamples = latency_.count();
    s.p50us = latency_.percentile(0.50) / 1000.0;
    s.p90us = latency_.percentile(0.90) / 1000.0;
    s.p99us = latency_.percentile(0.99) / 1000.0;
    return s;
}

// ---------------------------------------------------------------------
// AdvisorServer
// ---------------------------------------------------------------------

namespace {

std::string
errorReply(const std::string &code, const std::string &message)
{
    return "ERROR " + code + " " + message;
}

std::string
errorReply(const Error &err)
{
    const std::string code = err.code == Errc::InvalidArgument
                                 ? "bad-request"
                                 : "fill-failed";
    return errorReply(code, err.message);
}

std::string
formatTlp(const TlpCombo &combo)
{
    std::string out;
    for (std::size_t i = 0; i < combo.size(); ++i) {
        if (i != 0)
            out += ',';
        out += std::to_string(combo[i]);
    }
    return out;
}

std::string
formatDouble(double v)
{
    std::ostringstream out;
    out.precision(6);
    out << std::fixed << v;
    return out.str();
}

const char *
sourceName(AdvisorService::Source s)
{
    switch (s) {
      case AdvisorService::Source::Memo: return "memo";
      case AdvisorService::Source::Store: return "store";
      default: return "fresh";
    }
}

/** OK line for one answered pair, led by the requested objective. */
std::string
formatAnswer(const AdvisorService::Answer &ans, ServeObjective obj)
{
    const AdvisorService::Choice &c = ans.forObjective(obj);
    std::string apps;
    for (std::size_t i = 0; i < ans.apps.size(); ++i) {
        if (i != 0)
            apps += ',';
        apps += ans.apps[i];
    }
    return std::string("pair=") + ans.pair + " apps=" + apps +
           " obj=" + serveObjectiveName(obj) + " tlp=" +
           formatTlp(c.tlp) + " ws=" + formatDouble(c.ws) +
           " fi=" + formatDouble(c.fi) + " hs=" + formatDouble(c.hs) +
           " source=" + sourceName(ans.source);
}

/**
 * Reject unknown and duplicate application tokens up front, so every
 * verb shares one validation and one error vocabulary.
 */
std::optional<std::string>
validateApps(const std::vector<std::string> &apps)
{
    std::set<std::string> seen;
    for (const std::string &name : apps) {
        if (!hasApp(name)) {
            return errorReply("unknown-app",
                              "unknown application '" + name + "'");
        }
        if (!seen.insert(name).second) {
            return errorReply("duplicate-app",
                              "application '" + name +
                                  "' listed more than once");
        }
    }
    return std::nullopt;
}

} // namespace

AdvisorServer::AdvisorServer(AdvisorService &service, Options opts)
    : service_(service), opts_(std::move(opts)),
      frames_([this](const std::string &payload,
                     std::uint64_t) { return handleRequest(payload); },
              service.requestLatency())
{
}

Status
AdvisorServer::start()
{
    auto listener = netListenUnix(opts_.socketPath);
    if (!listener.ok())
        return listener.error();
    bound_ = true;
    return frames_.start(std::move(listener.value()), false);
}

void
AdvisorServer::stop()
{
    frames_.stop();
    if (std::exchange(bound_, false))
        ::unlink(opts_.socketPath.c_str());
}

std::optional<std::string>
AdvisorServer::parseQueryOpts(const std::vector<std::string> &toks,
                              std::size_t first, ServeObjective &obj,
                              std::uint32_t &wait_ms) const
{
    obj = opts_.defaultObjective;
    wait_ms = 0;
    for (std::size_t i = first; i < toks.size(); i += 2) {
        if (i + 1 >= toks.size()) {
            return errorReply("bad-request",
                              "option '" + toks[i] +
                                  "' is missing its value");
        }
        if (toks[i] == "OBJ") {
            const auto parsed = parseServeObjective(toks[i + 1]);
            if (!parsed) {
                return errorReply("bad-request",
                                  "unknown objective '" + toks[i + 1] +
                                      "' (expected WS, FI, or HS)");
            }
            obj = *parsed;
        } else if (toks[i] == "WAIT") {
            std::uint64_t ms = 0;
            if (!parseUint(toks[i + 1].c_str(), ms) ||
                ms > opts_.maxWaitMs) {
                return errorReply(
                    "bad-request",
                    "invalid WAIT value '" + toks[i + 1] +
                        "' (unsigned milliseconds <= " +
                        std::to_string(opts_.maxWaitMs) + ")");
            }
            wait_ms = static_cast<std::uint32_t>(ms);
        } else {
            return errorReply("bad-request",
                              "unknown option '" + toks[i] + "'");
        }
    }
    return std::nullopt;
}

std::string
AdvisorServer::handleAdvise(const std::vector<std::string> &toks)
{
    if (toks.size() < 3) {
        return errorReply("bad-request",
                          "ADVISE needs two application names");
    }
    const std::vector<std::string> apps{toks[1], toks[2]};
    if (auto bad = validateApps(apps))
        return *bad;
    ServeObjective obj;
    std::uint32_t wait_ms = 0;
    if (auto bad = parseQueryOpts(toks, 3, obj, wait_ms))
        return *bad;

    const auto r = service_.advise(apps[0], apps[1], wait_ms);
    switch (r.state) {
      case AdvisorService::State::Ready:
        return "OK ADVISE " + formatAnswer(r.answer, obj);
      case AdvisorService::State::Pending: {
        std::string lo = apps[0], hi = apps[1];
        if (hi < lo)
            std::swap(lo, hi);
        return "PENDING ticket=" + std::to_string(r.ticket) +
               " pair=" + lo + "_" + hi;
      }
      default:
        return errorReply(r.error);
    }
}

std::string
AdvisorServer::handlePair(const std::vector<std::string> &toks)
{
    // Collect leading app tokens; options start at OBJ/WAIT.
    std::vector<std::string> apps;
    std::size_t i = 1;
    for (; i < toks.size(); ++i) {
        if (toks[i] == "OBJ" || toks[i] == "WAIT")
            break;
        apps.push_back(toks[i]);
    }
    if (apps.size() < 2) {
        return errorReply("bad-request",
                          "PAIR needs at least two application names");
    }
    if (apps.size() > opts_.maxPairApps) {
        return errorReply("bad-request",
                          "PAIR accepts at most " +
                              std::to_string(opts_.maxPairApps) +
                              " applications");
    }
    if (auto bad = validateApps(apps))
        return *bad;
    ServeObjective obj;
    std::uint32_t wait_ms = 0;
    if (auto bad = parseQueryOpts(toks, i, obj, wait_ms))
        return *bad;

    // Query every unordered pair; spend the WAIT budget across them.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(wait_ms);
    std::size_t pending = 0;
    std::vector<AdvisorService::Answer> answers;
    answers.reserve(apps.size() * (apps.size() - 1) / 2);
    for (std::size_t x = 0; x < apps.size(); ++x) {
        for (std::size_t y = x + 1; y < apps.size(); ++y) {
            const auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
            const auto budget = static_cast<std::uint32_t>(
                std::max<long long>(left.count(), 0));
            const auto r = service_.advise(apps[x], apps[y], budget);
            switch (r.state) {
              case AdvisorService::State::Ready:
                answers.push_back(r.answer);
                break;
              case AdvisorService::State::Pending:
                ++pending;
                break;
              default:
                return errorReply(r.error);
            }
        }
    }
    if (pending > 0) {
        return "PENDING missing=" + std::to_string(pending) +
               " (pairs are filling; retry PAIR to make progress)";
    }
    std::vector<const AdvisorService::Answer *> order;
    order.reserve(answers.size());
    for (const auto &ans : answers)
        order.push_back(&ans);
    std::sort(order.begin(), order.end(),
              [obj](const auto *l, const auto *r) {
                  return l->forObjective(obj).score(obj) >
                         r->forObjective(obj).score(obj);
              });
    std::string ranked;
    for (const auto *ans : order) {
        if (!ranked.empty())
            ranked += ',';
        ranked += ans->pair + ':' +
                  formatDouble(ans->forObjective(obj).score(obj));
    }
    return "OK PAIR obj=" + std::string(serveObjectiveName(obj)) +
           " best=" + order.front()->pair +
           " tlp=" + formatTlp(order.front()->forObjective(obj).tlp) +
           " ranked=" + ranked;
}

std::string
AdvisorServer::handlePoll(const std::vector<std::string> &toks)
{
    if (toks.size() != 2)
        return errorReply("bad-request", "POLL needs one ticket id");
    std::uint64_t ticket = 0;
    if (!parseUint(toks[1].c_str(), ticket)) {
        return errorReply("bad-request",
                          "invalid ticket '" + toks[1] + "'");
    }
    const auto r = service_.poll(ticket);
    switch (r.state) {
      case AdvisorService::State::Ready:
        return "OK ADVISE " +
               formatAnswer(r.answer, opts_.defaultObjective);
      case AdvisorService::State::Pending:
        return "PENDING ticket=" + std::to_string(r.ticket);
      default:
        return r.error.code == Errc::InvalidArgument
                   ? errorReply("unknown-ticket", r.error.message)
                   : errorReply(r.error);
    }
}

std::string
AdvisorServer::handleStats()
{
    const auto s = service_.stats();
    std::ostringstream out;
    out << "OK STATS requests=" << s.requests << " hits=" << s.hits
        << " misses=" << s.misses << " joined=" << s.joined
        << " inflight=" << s.inflight
        << " fills_dispatched=" << s.fillsDispatched
        << " fills_completed=" << s.fillsCompleted
        << " fills_failed=" << s.fillsFailed
        << " snapshot_hits=" << s.snapshotHits
        << " snapshot_misses=" << s.snapshotMisses
        << " latency_samples=" << s.latencySamples
        << " p50_us=" << formatDouble(s.p50us)
        << " p90_us=" << formatDouble(s.p90us)
        << " p99_us=" << formatDouble(s.p99us) << ' '
        << RuntimeConfig::get().describe();
    return out.str();
}

std::string
AdvisorServer::handleRequest(const std::string &payload)
{
    const std::vector<std::string> toks = servefmt::splitTokens(payload);
    if (toks.empty())
        return errorReply("bad-request", "empty request");
    const std::string &verb = toks[0];
    if (verb == "PING")
        return "OK PONG";
    if (verb == "STATS")
        return handleStats();
    if (verb == "ADVISE")
        return handleAdvise(toks);
    if (verb == "PAIR")
        return handlePair(toks);
    if (verb == "POLL")
        return handlePoll(toks);
    if (verb == "SHUTDOWN") {
        if (!opts_.allowRemoteShutdown) {
            return errorReply("bad-request",
                              "remote shutdown is disabled");
        }
        // The server closes this connection after the reply.
        frames_.requestShutdown();
        return "OK BYE";
    }
    return errorReply("bad-request", "unknown verb '" + verb + "'");
}

} // namespace ebm
