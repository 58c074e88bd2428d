/**
 * @file
 * Whole-GPU property sweeps over the TLP ladder: invariants the
 * paper's analysis rests on must hold at every level — bandwidth
 * monotonicity up to saturation for streaming apps, cache miss-rate
 * monotonicity for cache-sensitive apps, and metric sanity bounds.
 */
#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "sim/gpu.hpp"

namespace ebm {
namespace {

class TlpSweep : public ::testing::TestWithParam<std::uint32_t>
{
  protected:
    static AppRunStats
    runAt(const AppProfile &app, std::uint32_t tlp)
    {
        GpuConfig cfg = test::tinyConfig(1);
        Gpu gpu(cfg, {app});
        gpu.setAppTlp(0, tlp);
        gpu.run(6000);
        AppRunStats s;
        s.ipc = gpu.appIpc(0);
        s.bw = gpu.appAttainedBw(0);
        s.l1Mr = gpu.appL1MissRate(0);
        s.l2Mr = gpu.appL2MissRate(0);
        return s;
    }
};

TEST_P(TlpSweep, MetricsWithinBounds)
{
    for (const AppProfile &app :
         {test::streamingApp(), test::cacheApp(), test::computeApp()}) {
        const AppRunStats s = runAt(app, GetParam());
        EXPECT_GT(s.ipc, 0.0) << app.name;
        EXPECT_GE(s.bw, 0.0) << app.name;
        EXPECT_LE(s.bw, 1.0) << app.name;
        EXPECT_GT(s.l1Mr, 0.0) << app.name;
        EXPECT_LE(s.l1Mr, 1.0) << app.name;
        EXPECT_LE(s.l2Mr, 1.0) << app.name;
        EXPECT_GE(s.eb(), s.bw - 1e-12)
            << app.name << ": caches cannot shrink effective BW";
    }
}

TEST_P(TlpSweep, StreamingCmrStaysUnity)
{
    const AppRunStats s = runAt(test::streamingApp(), GetParam());
    EXPECT_DOUBLE_EQ(s.l1Mr, 1.0);
    EXPECT_NEAR(s.cmr(), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Levels, TlpSweep,
                         ::testing::ValuesIn(GpuConfig::tlpLevels()));

TEST(TlpSweepShapes, CacheAppMissRateMonotoneInTlp)
{
    // More concurrent warps -> larger combined working set -> the L1
    // miss rate must be non-decreasing (within tolerance) in TLP.
    GpuConfig cfg = test::tinyConfig(1);
    double prev = -1.0;
    for (std::uint32_t tlp : {1u, 2u, 4u, 8u}) {
        Gpu gpu(cfg, {test::cacheApp()});
        gpu.setAppTlp(0, tlp);
        gpu.run(6000);
        const double mr = gpu.appL1MissRate(0);
        EXPECT_GE(mr, prev - 0.05) << "tlp " << tlp;
        prev = mr;
    }
}

TEST(TlpSweepShapes, StreamingBwRisesThenSaturates)
{
    GpuConfig cfg = test::tinyConfig(1);
    std::vector<double> bw;
    for (std::uint32_t tlp : {1u, 2u, 4u, 8u}) {
        Gpu gpu(cfg, {test::streamingApp()});
        gpu.setAppTlp(0, tlp);
        gpu.run(6000);
        bw.push_back(gpu.appAttainedBw(0));
    }
    EXPECT_GT(bw[1], bw[0]) << "low-TLP region is demand limited";
    // Past saturation BW never grows much further.
    const double peak = *std::max_element(bw.begin(), bw.end());
    EXPECT_LT(bw.back(), peak * 1.05 + 1e-9);
}

TEST(TlpSweepShapes, ComputeAppIpcMonotoneUntilIssueBound)
{
    GpuConfig cfg = test::tinyConfig(1);
    double prev = 0.0;
    for (std::uint32_t tlp : {1u, 2u, 4u}) {
        Gpu gpu(cfg, {test::computeApp()});
        gpu.setAppTlp(0, tlp);
        gpu.run(6000);
        const double ipc = gpu.appIpc(0);
        EXPECT_GE(ipc, prev * 0.98) << "tlp " << tlp;
        prev = ipc;
    }
}

} // namespace
} // namespace ebm
