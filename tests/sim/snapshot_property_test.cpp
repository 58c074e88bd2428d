/**
 * @file
 * Snapshot/restore property sweeps: a run forked from a mid-run
 * capture must be bit-identical to the cold run it forked from, at
 * every TLP ladder level, across reset(flush_caches=false) reuse, and
 * when forks are chained. The golden digest (FNV-1a over every
 * end-of-run counter) is the oracle; any divergence means snapshot()
 * missed state or restore() failed to reinstate it.
 */
#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "sim/golden_digest.hpp"
#include "sim/gpu.hpp"

namespace ebm {
namespace {

constexpr Cycle kPrefix = 5000;
constexpr Cycle kTail = 7000;

/** Digest of a cold two-app run of @p prefix + @p tail cycles. */
std::uint64_t
coldDigest(const GpuConfig &cfg, const std::vector<AppProfile> &apps,
           std::uint32_t tlp0, std::uint32_t tlp1)
{
    Gpu gpu(cfg, apps);
    gpu.setAppTlp(0, tlp0);
    gpu.setAppTlp(1, tlp1);
    gpu.run(kPrefix);
    gpu.run(kTail);
    return goldenDigest(gpu);
}

class SnapshotLadder : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SnapshotLadder, RestoredRunMatchesColdRunAtEveryLevel)
{
    const std::uint32_t tlp = GetParam();
    const GpuConfig cfg = test::tinyConfig(2);
    const std::vector<AppProfile> apps{test::streamingApp(),
                                       test::cacheApp()};
    const std::uint64_t cold = coldDigest(cfg, apps, tlp, 8);

    // Capture mid-run, keep running on the original instance: the
    // snapshot() call itself must not perturb the machine.
    Gpu warm(cfg, apps);
    warm.setAppTlp(0, tlp);
    warm.setAppTlp(1, 8);
    warm.run(kPrefix);
    const Gpu::Snapshot snap = warm.snapshot();
    warm.run(kTail);
    EXPECT_EQ(goldenDigest(warm), cold) << "tlp " << tlp;

    // Restore into a construction-fresh sibling: the snapshot carries
    // everything (warps, caches, queues, DRAM state, knobs), so the
    // fork finishes identically.
    Gpu fork(cfg, apps);
    fork.restore(snap);
    fork.run(kTail);
    EXPECT_EQ(goldenDigest(fork), cold) << "tlp " << tlp;
}

INSTANTIATE_TEST_SUITE_P(Levels, SnapshotLadder,
                         ::testing::ValuesIn(GpuConfig::tlpLevels()));

TEST(SnapshotProperty, RoundTripAfterSoftResetReuse)
{
    // A machine reused via reset(): a snapshot taken after
    // a reset(flush_caches=false) round-trip must still fork
    // identically — the capture carries the retained cache contents.
    const GpuConfig cfg = test::tinyConfig(2);
    const std::vector<AppProfile> apps{
        test::cacheApp("WARM", 3), test::streamingApp()};

    const auto scenario = [&](Gpu &gpu) {
        gpu.run(4000);
        gpu.reset(/*flush_caches=*/false);
        gpu.checkpoint();
        gpu.run(kPrefix);
    };

    Gpu cold(cfg, apps);
    scenario(cold);
    cold.run(kTail);
    const std::uint64_t want = goldenDigest(cold);

    Gpu warm(cfg, apps);
    scenario(warm);
    Gpu fork(cfg, apps);
    fork.restore(warm.snapshot());
    fork.run(kTail);
    EXPECT_EQ(goldenDigest(fork), want);
}

TEST(SnapshotProperty, ChainedForksMatchColdRun)
{
    // Fork of a fork: capture at t1, restore, run to t2, capture
    // again, restore into a third instance, finish. Any state leak
    // across one hop would compound across two.
    const GpuConfig cfg = test::tinyConfig(2);
    const std::vector<AppProfile> apps{test::streamingApp(),
                                       test::cacheApp()};
    Gpu cold(cfg, apps);
    cold.run(3000);
    cold.run(3000);
    cold.run(kTail);
    const std::uint64_t want = goldenDigest(cold);

    Gpu first(cfg, apps);
    first.run(3000);
    Gpu second(cfg, apps);
    second.restore(first.snapshot());
    second.run(3000);
    Gpu third(cfg, apps);
    third.restore(second.snapshot());
    third.run(kTail);
    EXPECT_EQ(goldenDigest(third), want);
}

TEST(SnapshotProperty, RestoreRewindsADivergedInstance)
{
    // Restore is not just for fresh instances: re-restoring an
    // instance that has since run (and mutated knobs) rewinds it to
    // the capture point exactly.
    const GpuConfig cfg = test::tinyConfig(2);
    const std::vector<AppProfile> apps{test::streamingApp(),
                                       test::cacheApp()};
    const std::uint64_t cold = coldDigest(cfg, apps, 4, 8);

    Gpu gpu(cfg, apps);
    gpu.setAppTlp(0, 4);
    gpu.setAppTlp(1, 8);
    gpu.run(kPrefix);
    const Gpu::Snapshot snap = gpu.snapshot();
    // Diverge hard: different knobs, more cycles, a checkpoint.
    gpu.setAppTlp(0, 1);
    gpu.setAppL1Bypass(1, true);
    gpu.run(2500);
    gpu.checkpoint();

    gpu.restore(snap);
    gpu.run(kTail);
    EXPECT_EQ(goldenDigest(gpu), cold);
}

TEST(SnapshotProperty, ShapeMismatchIsFatal)
{
    const GpuConfig two = test::tinyConfig(2);
    GpuConfig bigger = test::tinyConfig(2);
    bigger.numCores = two.numCores * 2;
    Gpu a(two, {test::streamingApp(), test::cacheApp()});
    Gpu b(bigger, {test::streamingApp(), test::cacheApp()});
    a.run(1000);
    const Gpu::Snapshot snap = a.snapshot();
    EXPECT_EBM_FATAL(b.restore(snap), "shape mismatch");
}

} // namespace
} // namespace ebm
