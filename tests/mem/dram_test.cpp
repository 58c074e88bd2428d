#include "mem/dram.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace ebm {
namespace {

class DramTest : public ::testing::Test
{
  protected:
    DramTest() : cfg_(test::tinyConfig()), dram_(cfg_, /*num_apps=*/2) {}

    MemRequest
    req(AppId app = 0)
    {
        MemRequest r;
        r.app = app;
        return r;
    }

    DramCoord
    coord(std::uint32_t bank, std::uint64_t row, std::uint32_t col)
    {
        DramCoord c;
        c.bank = bank;
        c.row = row;
        c.col = col;
        return c;
    }

    /** Tick until @p n completions arrive or @p limit cycles pass. */
    std::vector<DramCompletion>
    drain(std::size_t n, Cycle limit = 10'000)
    {
        std::vector<DramCompletion> all;
        for (Cycle c = 0; c < limit && all.size() < n; ++c) {
            DramCompletion done;
            if (dram_.tick(done))
                all.push_back(done);
        }
        return all;
    }

    GpuConfig cfg_;
    DramChannel dram_;
};

TEST_F(DramTest, SingleRequestCompletes)
{
    dram_.enqueue(req(), coord(0, 5, 0));
    const auto done = drain(1);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(dram_.requestsServiced(), 1u);
}

TEST_F(DramTest, ColdAccessPaysActivatePlusCas)
{
    dram_.enqueue(req(), coord(0, 5, 0));
    const auto done = drain(1);
    ASSERT_EQ(done.size(), 1u);
    const auto &t = cfg_.dram;
    // activate at cycle >=1, column >= tRCD later, data tCL + burst.
    EXPECT_GE(done[0].readyAt, t.tRCD + t.tCL + t.burstCycles);
}

TEST_F(DramTest, RowHitFasterThanRowMiss)
{
    dram_.enqueue(req(), coord(0, 5, 0));
    dram_.enqueue(req(), coord(0, 5, 1)); // Same row: hit.
    const auto fast = drain(2);
    ASSERT_EQ(fast.size(), 2u);
    const Cycle hit_gap = fast[1].readyAt - fast[0].readyAt;

    dram_.reset();
    dram_.enqueue(req(), coord(0, 5, 0));
    dram_.enqueue(req(), coord(0, 6, 0)); // Same bank, new row: miss.
    const auto slow = drain(2);
    ASSERT_EQ(slow.size(), 2u);
    const Cycle miss_gap = slow[1].readyAt - slow[0].readyAt;

    EXPECT_LT(hit_gap, miss_gap);
}

TEST_F(DramTest, RowHitCounterTracksLocality)
{
    for (std::uint32_t c = 0; c < 4; ++c)
        dram_.enqueue(req(), coord(0, 5, c));
    drain(4);
    EXPECT_EQ(dram_.rowMisses(), 1u) << "one activate for the row";
    EXPECT_EQ(dram_.rowHits(), 3u);
}

TEST_F(DramTest, FrFcfsPrefersRowHitOverOlderMiss)
{
    // Open row 5 on bank 0.
    dram_.enqueue(req(), coord(0, 5, 0));
    drain(1);
    // Older request to a different row, younger row-hit.
    dram_.enqueue(req(0), coord(0, 9, 0));
    dram_.enqueue(req(1), coord(0, 5, 1));
    const auto done = drain(2);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].req.app, 1u) << "row hit serviced first";
}

TEST_F(DramTest, BankParallelismBeatsBankConflicts)
{
    // Same number of requests; spread across banks vs one bank.
    for (std::uint32_t i = 0; i < 8; ++i)
        dram_.enqueue(req(), coord(i % cfg_.banksPerChannel, 5 + i, 0));
    const auto spread = drain(8);
    const Cycle spread_end = spread.back().readyAt;

    dram_.reset();
    for (std::uint32_t i = 0; i < 8; ++i)
        dram_.enqueue(req(), coord(0, 5 + i, 0));
    const auto serial = drain(8);
    const Cycle serial_end = serial.back().readyAt;

    EXPECT_LT(spread_end, serial_end);
}

TEST_F(DramTest, TimingBlockedBankDoesNotBlockOthers)
{
    // Two conflicting requests on bank 0 plus one on bank 1; the bank-1
    // request must finish before the second bank-0 row conflict.
    dram_.enqueue(req(0), coord(0, 5, 0));
    dram_.enqueue(req(0), coord(0, 6, 0));
    dram_.enqueue(req(1), coord(1, 7, 0));
    const auto done = drain(3);
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[1].req.app, 1u)
        << "bank-1 request overtakes the bank-0 row conflict";
}

TEST_F(DramTest, PerAppDataCyclesAttributed)
{
    dram_.enqueue(req(0), coord(0, 5, 0));
    dram_.enqueue(req(1), coord(1, 6, 0));
    dram_.enqueue(req(1), coord(1, 6, 1));
    drain(3);
    EXPECT_EQ(dram_.dataCycles(0), cfg_.dram.burstCycles);
    EXPECT_EQ(dram_.dataCycles(1), 2u * cfg_.dram.burstCycles);
}

TEST_F(DramTest, WindowCountersResetAtCheckpoint)
{
    dram_.enqueue(req(0), coord(0, 5, 0));
    drain(1);
    dram_.checkpoint();
    EXPECT_EQ(dram_.windowDataCycles(0), 0u);
    dram_.enqueue(req(0), coord(0, 5, 1));
    drain(2, 2000);
    EXPECT_EQ(dram_.windowDataCycles(0), cfg_.dram.burstCycles);
}

TEST_F(DramTest, QueueBackpressure)
{
    for (std::uint32_t i = 0; i < cfg_.frfcfsQueueDepth; ++i) {
        ASSERT_FALSE(dram_.queueFull());
        dram_.enqueue(req(), coord(0, i, 0));
    }
    EXPECT_TRUE(dram_.queueFull());
}

TEST_F(DramTest, ResetRestoresInitialState)
{
    dram_.enqueue(req(), coord(0, 5, 0));
    drain(1);
    dram_.reset();
    EXPECT_EQ(dram_.now(), 0u);
    EXPECT_EQ(dram_.requestsServiced(), 0u);
    EXPECT_EQ(dram_.dataCycles(0), 0u);
    EXPECT_EQ(dram_.queueDepth(), 0u);
}

TEST_F(DramTest, ActivatesRespectTrrd)
{
    // Two activates to different banks cannot be closer than tRRD.
    dram_.enqueue(req(), coord(0, 5, 0));
    dram_.enqueue(req(), coord(1, 6, 0));
    const auto done = drain(2);
    ASSERT_EQ(done.size(), 2u);
    // Completion gap >= tRRD because the second activate waited.
    EXPECT_GE(done[1].readyAt - done[0].readyAt,
              static_cast<Cycle>(cfg_.dram.tRRD) -
                  cfg_.dram.burstCycles);
}

TEST_F(DramTest, StreamsThroughputExceedsRandom)
{
    // 32 sequential columns in one row vs 32 random rows across banks:
    // the streaming pattern must finish sooner (row locality).
    const std::uint32_t n = 16;
    for (std::uint32_t i = 0; i < n; ++i)
        dram_.enqueue(req(), coord(0, 5, i % 16));
    const Cycle stream_end = drain(n).back().readyAt;

    dram_.reset();
    for (std::uint32_t i = 0; i < n; ++i)
        dram_.enqueue(req(), coord(i % cfg_.banksPerChannel,
                                   100 + i * 17, 0));
    const Cycle random_end = drain(n).back().readyAt;
    EXPECT_LT(stream_end, random_end);
}

/** A snapshot with two queued requests to corrupt one field at a time. */
class DramRestoreTest : public DramTest
{
  protected:
    DramChannel::Snapshot
    queuedSnapshot()
    {
        dram_.enqueue(req(0), coord(0, 5, 0));
        dram_.enqueue(req(1), coord(1, 6, 0));
        return dram_.snapshot();
    }
};

TEST_F(DramRestoreTest, AcceptsOwnSnapshot)
{
    DramChannel fresh(cfg_, 2);
    fresh.restore(queuedSnapshot());
    EXPECT_EQ(fresh.queueDepth(), 2u);
}

TEST_F(DramRestoreTest, RejectsWrongBankGroupCount)
{
    DramChannel::Snapshot snap = queuedSnapshot();
    snap.lastColumnInGroup.push_back(0);
    EXPECT_EBM_FATAL(dram_.restore(snap), "snapshot shape mismatch");
}

TEST_F(DramRestoreTest, RejectsOutOfRangeQueuedBank)
{
    DramChannel::Snapshot snap = queuedSnapshot();
    snap.queue[1].coord.bank = cfg_.banksPerChannel;
    EXPECT_EBM_FATAL(dram_.restore(snap), "snapshot shape mismatch");
}

TEST_F(DramRestoreTest, RejectsOutOfRangeQueuedApp)
{
    DramChannel::Snapshot snap = queuedSnapshot();
    snap.queue[0].req.app = 2;
    EXPECT_EBM_FATAL(dram_.restore(snap), "snapshot shape mismatch");
}

TEST_F(DramRestoreTest, RejectsNonIncreasingSeq)
{
    DramChannel::Snapshot snap = queuedSnapshot();
    const std::uint64_t second = snap.queue[1].seq;
    snap.queue[1].seq = snap.queue[0].seq; // A tie.
    EXPECT_EBM_FATAL(dram_.restore(snap), "snapshot shape mismatch");
    snap.queue[1].seq = second;
    snap.queue[0].seq = second + 1; // Out of age order.
    EXPECT_EBM_FATAL(dram_.restore(snap), "snapshot shape mismatch");
}

} // namespace
} // namespace ebm
