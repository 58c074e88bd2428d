/**
 * @file
 * Differential test of the FR-FCFS scheduler: DramChannel's per-bank
 * index against a reference channel that keeps the original
 * formulation — two oldest-first linear passes over the whole queue.
 * Seeded random request streams (1–4 apps, streaming to random
 * locality, queue depths 8–64, starvation caps 16–512, varied
 * tRRD/tRAS/tCCDl) drive both channels; every tick must agree on the
 * return value, the completion, and every counter. Streams also
 * restore into fresh channels and reset mid-run.
 *
 * The binary's global operator new counts allocations so the
 * steady-state and restore paths can be checked allocation-free.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "mem/dram.hpp"

#include "../test_util.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
} // namespace

// GCC inlines these into callers and then flags free() of a pointer
// that came from operator new; here that pairing is the intent.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace ebm {
namespace {

/**
 * The FR-FCFS controller in its direct form, the oracle for the
 * indexed scheduler: the state is a DramChannel::Snapshot, and each
 * scan walks the whole age-ordered queue twice, oldest first. It also
 * counts the scans in which the starvation cap lifted a shield.
 */
class LinearChannel
{
  public:
    LinearChannel(const GpuConfig &cfg, std::uint32_t num_apps)
        : timing_(cfg.dram),
          banksPerGroup_(cfg.banksPerChannel / cfg.bankGroups),
          capCycles_(cfg.frfcfsCapCycles)
    {
        s_.banks.resize(cfg.banksPerChannel);
        s_.lastColumnInGroup.assign(cfg.bankGroups, 0);
        s_.dataCycles.resize(num_apps);
    }

    const DramChannel::Snapshot &state() const { return s_; }

    /** Scans in which the aged request lifted a row-hit shield. */
    std::uint64_t shieldLifts() const { return shieldLifts_; }

    void
    enqueue(const MemRequest &req, const DramCoord &coord)
    {
        DramCommand cmd;
        cmd.req = req;
        cmd.coord = coord;
        cmd.seq = nextSeq_++;
        cmd.enqueuedAt = s_.now;
        s_.queue.push_back(cmd);
        s_.scanSkipUntil = 0;
    }

    void
    reset()
    {
        const std::size_t banks = s_.banks.size();
        const std::size_t groups = s_.lastColumnInGroup.size();
        const std::size_t apps = s_.dataCycles.size();
        s_ = DramChannel::Snapshot{};
        s_.banks.resize(banks);
        s_.lastColumnInGroup.assign(groups, 0);
        s_.dataCycles.resize(apps);
        nextSeq_ = 0;
    }

    bool
    tick(DramCompletion &out)
    {
        auto &queue = s_.queue;
        const Cycle now = ++s_.now;
        if (queue.empty())
            return false;
        if (now < s_.scanSkipUntil)
            return false;

        const DramCommand *aged = nullptr;
        if (now - queue.front().enqueuedAt > capCycles_)
            aged = &queue.front();
        Cycle wake = kNeverCycle;

        const bool bus_ok = s_.busFreeAt <= now + timing_.tCL;
        const Cycle bus_wake =
            s_.busFreeAt > timing_.tCL ? s_.busFreeAt - timing_.tCL : 0;
        std::uint64_t bank_has_hit = 0;
        auto col_it = queue.end();
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            const DramCommand &cmd = *it;
            const std::uint64_t bit = 1ull << cmd.coord.bank;
            if ((bank_has_hit & bit) != 0)
                continue;
            const DramBank &bank = s_.banks[cmd.coord.bank];
            if (!bank.rowOpen || bank.openRow != cmd.coord.row)
                continue;
            const std::uint32_t group = cmd.coord.bank / banksPerGroup_;
            if (bus_ok && now >= bank.readyForColumn &&
                now >= s_.lastColumnInGroup[group] + timing_.tCCDl) {
                col_it = it;
                break;
            }
            bank_has_hit |= bit;
            Cycle w = std::max(bank.readyForColumn, bus_wake);
            w = std::max(w, s_.lastColumnInGroup[group] + timing_.tCCDl);
            wake = std::min(wake, w);
        }

        auto act_it = queue.end();
        auto pre_it = queue.end();
        if (col_it == queue.end()) {
            if (aged != nullptr &&
                (bank_has_hit & (1ull << aged->coord.bank)) != 0) {
                bank_has_hit &= ~(1ull << aged->coord.bank);
                ++shieldLifts_;
            }
            std::uint64_t seen = bank_has_hit;
            for (auto it = queue.begin(); it != queue.end(); ++it) {
                const DramCommand &cmd = *it;
                const std::uint64_t bit = 1ull << cmd.coord.bank;
                if ((seen & bit) != 0)
                    continue;
                const DramBank &bank = s_.banks[cmd.coord.bank];
                if (bank.rowOpen && bank.openRow == cmd.coord.row)
                    continue;
                seen |= bit;
                if (!bank.rowOpen) {
                    if (act_it == queue.end() &&
                        now >= bank.readyForActivate &&
                        now >= s_.lastActivateAt + timing_.tRRD) {
                        act_it = it;
                    }
                    wake = std::min(
                        wake, std::max(bank.readyForActivate,
                                       s_.lastActivateAt + timing_.tRRD));
                } else {
                    if (pre_it == queue.end() &&
                        now >= bank.rowOpenedAt + timing_.tRAS &&
                        now >= bank.readyForActivate) {
                        pre_it = it;
                    }
                    wake = std::min(
                        wake, std::max(bank.rowOpenedAt + timing_.tRAS,
                                       bank.readyForActivate));
                }
            }
        }

        if (col_it != queue.end()) {
            s_.scanSkipUntil = 0;
            DramCommand &cmd = *col_it;
            const std::uint32_t group = cmd.coord.bank / banksPerGroup_;
            const Cycle data_start =
                std::max(s_.busFreeAt, now + timing_.tCL);
            const Cycle data_end = data_start + timing_.burstCycles;
            s_.busFreeAt = data_end;
            s_.lastColumnInGroup[group] = now;
            if (!cmd.causedActivate)
                s_.rowHits.add();
            s_.serviced.add();
            s_.dataCycles[cmd.req.app].add(timing_.burstCycles);
            out.req = cmd.req;
            out.readyAt = data_end;
            queue.erase(col_it);
            return true;
        }

        if (act_it != queue.end()) {
            s_.scanSkipUntil = 0;
            DramCommand &cmd = *act_it;
            DramBank &bank = s_.banks[cmd.coord.bank];
            bank.rowOpen = true;
            bank.openRow = cmd.coord.row;
            bank.rowOpenedAt = now;
            bank.readyForColumn = now + timing_.tRCD;
            s_.lastActivateAt = now;
            cmd.causedActivate = true;
            s_.rowMisses.add();
            return false;
        }

        if (pre_it != queue.end()) {
            s_.scanSkipUntil = 0;
            DramBank &bank = s_.banks[pre_it->coord.bank];
            bank.rowOpen = false;
            bank.readyForActivate = now + timing_.tRP;
            return false;
        }

        if (aged == nullptr)
            wake = std::min(wake, queue.front().enqueuedAt + capCycles_ + 1);
        s_.scanSkipUntil = std::max(wake, now + 1);
        return false;
    }

  private:
    const DramTiming timing_;
    const std::uint32_t banksPerGroup_;
    const std::uint32_t capCycles_;
    DramChannel::Snapshot s_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t shieldLifts_ = 0;
};

/** One seeded stream's machine and traffic shape. */
struct StreamShape
{
    GpuConfig cfg;
    std::uint32_t apps = 1;
    std::vector<double> locality; ///< Per app: chance to continue a run.
    double arrivalRate = 1.0;     ///< Enqueue attempts per tick.
    std::uint32_t rows = 8;       ///< Random rows drawn from [0, rows).
};

StreamShape
drawShape(Rng &rng)
{
    StreamShape s;
    s.cfg = test::tinyConfig();
    s.cfg.banksPerChannel = rng.nextBounded(2) == 0 ? 8 : 16;
    s.cfg.bankGroups = rng.nextBounded(2) == 0 ? 2 : 4;
    s.cfg.frfcfsQueueDepth = 8 + static_cast<std::uint32_t>(
                                     rng.nextBounded(57)); // 8..64
    s.cfg.frfcfsCapCycles =
        16 + static_cast<std::uint32_t>(rng.nextBounded(497)); // ..512
    s.cfg.dram.tRRD = 1 + static_cast<std::uint32_t>(rng.nextBounded(12));
    s.cfg.dram.tRAS = 4 + static_cast<std::uint32_t>(rng.nextBounded(40));
    s.cfg.dram.tCCDl = 1 + static_cast<std::uint32_t>(rng.nextBounded(6));
    s.apps = 1 + static_cast<std::uint32_t>(rng.nextBounded(4));
    for (std::uint32_t a = 0; a < s.apps; ++a)
        s.locality.push_back(rng.nextUnit()); // Random .. streaming.
    s.arrivalRate = 0.05 + 0.95 * rng.nextUnit();
    s.rows = 1 + static_cast<std::uint32_t>(rng.nextBounded(16));
    return s;
}

/** Field-by-field equality of the two channels' full state. */
void
expectSameState(const DramChannel::Snapshot &got,
                const DramChannel::Snapshot &want)
{
    EXPECT_EQ(got.now, want.now);
    EXPECT_EQ(got.busFreeAt, want.busFreeAt);
    EXPECT_EQ(got.lastActivateAt, want.lastActivateAt);
    EXPECT_EQ(got.scanSkipUntil, want.scanSkipUntil);
    ASSERT_EQ(got.banks.size(), want.banks.size());
    for (std::size_t b = 0; b < got.banks.size(); ++b) {
        EXPECT_EQ(got.banks[b].rowOpen, want.banks[b].rowOpen) << b;
        EXPECT_EQ(got.banks[b].openRow, want.banks[b].openRow) << b;
        EXPECT_EQ(got.banks[b].readyForActivate,
                  want.banks[b].readyForActivate) << b;
        EXPECT_EQ(got.banks[b].readyForColumn,
                  want.banks[b].readyForColumn) << b;
        EXPECT_EQ(got.banks[b].rowOpenedAt, want.banks[b].rowOpenedAt)
            << b;
    }
    EXPECT_EQ(got.lastColumnInGroup, want.lastColumnInGroup);
    ASSERT_EQ(got.queue.size(), want.queue.size());
    for (std::size_t i = 0; i < got.queue.size(); ++i) {
        // seq values may differ after a restore; only their order
        // (the queue order compared here) is state.
        EXPECT_EQ(got.queue[i].req.lineAddr, want.queue[i].req.lineAddr)
            << i;
        EXPECT_EQ(got.queue[i].enqueuedAt, want.queue[i].enqueuedAt) << i;
        EXPECT_EQ(got.queue[i].causedActivate,
                  want.queue[i].causedActivate) << i;
        EXPECT_EQ(got.queue[i].coord.bank, want.queue[i].coord.bank) << i;
        EXPECT_EQ(got.queue[i].coord.row, want.queue[i].coord.row) << i;
    }
}

/** How often a stream exercised the paths the oracle must cover. */
struct Coverage
{
    std::uint64_t shieldLifts = 0;
    std::uint64_t restores = 0;
    std::uint64_t resets = 0;
    std::uint64_t fullQueueTicks = 0;
};

/**
 * Run one seeded stream through both channels, adding what it
 * exercised to @p cov; stops at the first divergence (a test failure).
 */
void
runStream(std::uint64_t seed, Coverage &cov)
{
    Rng rng(seed);
    const StreamShape shape = drawShape(rng);
    const GpuConfig &cfg = shape.cfg;
    auto dut = std::make_unique<DramChannel>(cfg, shape.apps);
    LinearChannel ref(cfg, shape.apps);

    struct Cursor
    {
        std::uint32_t bank = 0;
        std::uint64_t row = 0;
        std::uint32_t col = 0;
    };
    std::vector<Cursor> cursor(shape.apps);
    std::uint64_t line = 0;

    const int ticks = 4000;
    for (int t = 0; t < ticks; ++t) {
        ASSERT_EQ(dut->queueFull(),
                  ref.state().queue.size() >= cfg.frfcfsQueueDepth);
        if (dut->queueFull())
            ++cov.fullQueueTicks;
        if (!dut->queueFull() && rng.nextUnit() < shape.arrivalRate) {
            MemRequest req;
            req.app = static_cast<AppId>(rng.nextBounded(shape.apps));
            req.lineAddr = ++line;
            Cursor &c = cursor[req.app];
            if (rng.nextUnit() < shape.locality[req.app]) {
                if (++c.col == 16) { // Row done: stream to the next bank.
                    c.col = 0;
                    c.bank = (c.bank + 1) % cfg.banksPerChannel;
                    c.row = rng.nextBounded(shape.rows);
                }
            } else {
                c.bank = static_cast<std::uint32_t>(
                    rng.nextBounded(cfg.banksPerChannel));
                c.row = rng.nextBounded(shape.rows);
                c.col = static_cast<std::uint32_t>(rng.nextBounded(16));
            }
            DramCoord coord;
            coord.bank = c.bank;
            coord.row = c.row;
            coord.col = c.col;
            dut->enqueue(req, coord);
            ref.enqueue(req, coord);
        }

        DramCompletion got;
        DramCompletion want;
        const bool got_done = dut->tick(got);
        const bool want_done = ref.tick(want);
        ASSERT_EQ(got_done, want_done) << "seed " << seed << " tick " << t;
        if (want_done) {
            ASSERT_EQ(got.req.lineAddr, want.req.lineAddr)
                << "seed " << seed << " tick " << t;
            ASSERT_EQ(got.req.app, want.req.app);
            ASSERT_EQ(got.readyAt, want.readyAt)
                << "seed " << seed << " tick " << t;
        }
        const DramChannel::Snapshot &r = ref.state();
        ASSERT_EQ(dut->rowHits(), r.rowHits.total()) << "seed " << seed;
        ASSERT_EQ(dut->rowMisses(), r.rowMisses.total()) << "seed " << seed;
        ASSERT_EQ(dut->requestsServiced(), r.serviced.total());
        ASSERT_EQ(dut->queueDepth(), r.queue.size()) << "seed " << seed;
        for (AppId a = 0; a < shape.apps; ++a)
            ASSERT_EQ(dut->dataCycles(a), r.dataCycles[a].total());

        // Occasionally move the run to a fresh channel: restored from
        // the channel's own snapshot, or from the oracle's state (a
        // queue the index did not build itself).
        const std::uint64_t event = rng.nextBounded(1000);
        if (event < 4) {
            const DramChannel::Snapshot snap =
                event < 2 ? dut->snapshot() : ref.state();
            auto fresh = std::make_unique<DramChannel>(cfg, shape.apps);
            fresh->restore(snap);
            dut = std::move(fresh);
            expectSameState(dut->snapshot(), ref.state());
            ++cov.restores;
        } else if (event == 4) {
            dut->reset();
            ref.reset();
            ++cov.resets;
        }
        if (::testing::Test::HasFailure())
            return;
    }
    expectSameState(dut->snapshot(), ref.state());
    cov.shieldLifts += ref.shieldLifts();
}

TEST(DramFrFcfsOracle, IndexedSchedulerMatchesLinearScan)
{
    Coverage cov;
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        runStream(seed, cov);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "first divergent stream: seed " << seed;
            return;
        }
    }
    // The streams must reach the paths the index could get wrong.
    EXPECT_GT(cov.shieldLifts, 1000u);
    EXPECT_GT(cov.restores, 1000u);
    EXPECT_GT(cov.resets, 500u);
    EXPECT_GT(cov.fullQueueTicks, 10000u);
    std::printf("coverage: %llu shield lifts, %llu restores, %llu resets, "
                "%llu full-queue ticks\n",
                static_cast<unsigned long long>(cov.shieldLifts),
                static_cast<unsigned long long>(cov.restores),
                static_cast<unsigned long long>(cov.resets),
                static_cast<unsigned long long>(cov.fullQueueTicks));
}

TEST(DramFrFcfsOracle, RestoreAndSteadyStateDoNotAllocate)
{
    const GpuConfig cfg = test::tinyConfig(2);
    DramChannel dram(cfg, 2);
    MemRequest req;
    DramCoord coord;
    Rng rng(42);
    auto step = [&](int ticks) {
        for (int t = 0; t < ticks; ++t) {
            if (!dram.queueFull()) {
                req.app = static_cast<AppId>(rng.nextBounded(2));
                coord.bank = static_cast<std::uint32_t>(
                    rng.nextBounded(cfg.banksPerChannel));
                coord.row = rng.nextBounded(4);
                dram.enqueue(req, coord);
            }
            DramCompletion done;
            dram.tick(done);
        }
    };
    step(500);
    const DramChannel::Snapshot snap = dram.snapshot();
    ASSERT_GT(snap.queue.size(), 0u);

    const std::uint64_t before = g_allocations.load();
    step(2000);
    dram.restore(snap);
    step(100);
    dram.reset();
    step(100);
    dram.restore(snap);
    EXPECT_EQ(g_allocations.load(), before)
        << "the per-cycle, reset or restore path allocated";
}

} // namespace
} // namespace ebm
