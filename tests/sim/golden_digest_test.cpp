/**
 * @file
 * Golden-run digests: FNV-1a hashes over every end-of-run counter of
 * fixed configurations, locked to constants recorded on the serial
 * tick-by-tick simulator BEFORE the hot-path optimizations (event
 * skipping, allocation-free MSHR/crossbar/scheduler structures)
 * landed. These constants must NEVER change: any optimization that
 * moves one of them has changed simulation behaviour, not just speed.
 *
 * The scenarios deliberately cross every hot subsystem: two-app
 * co-scheduling over the crossbar, per-app TLP limits, L1/L2 bypass,
 * L2 way partitioning, mid-run TLP changes, checkpoint windows, and
 * reset round-trips.
 */
#include "sim/golden_digest.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "../test_util.hpp"
#include "sim/gpu.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {
namespace {

// Recorded on the pre-optimization serial simulator. Do not update.
constexpr std::uint64_t kDigestSyntheticPair = 0x4a837d282cc0168bull;
constexpr std::uint64_t kDigestCatalogPair = 0xc8fb2e69828661dfull;
constexpr std::uint64_t kDigestKnobStorm = 0x77eee4c0631abd0cull;
constexpr std::uint64_t kDigestResetRoundTrip = 0xef24cbfbc38e5c39ull;
// Recorded on the default 16-core machine before the per-core loops of
// Gpu::tick learned to skip parked cores. Do not update.
constexpr std::uint64_t kDigestStandardTlp1 = 0x8ffcbc5dc8938feaull;
constexpr std::uint64_t kDigestStandardTlp24 = 0x538611094cc4c4ecull;

TEST(GoldenDigest, SyntheticPairLocked)
{
    GpuConfig cfg = test::tinyConfig(2);
    Gpu gpu(cfg, {test::streamingApp(), test::cacheApp()});
    gpu.setAppTlp(0, 4);
    gpu.setAppTlp(1, 8);
    gpu.run(20000);
    EXPECT_EQ(goldenDigest(gpu), kDigestSyntheticPair);
}

TEST(GoldenDigest, CatalogPairLocked)
{
    // The paper's memory-bound cache-amplified pairing (BFS, FFT) on
    // the tiny machine: long DRAM-bound phases, heavy MSHR merging.
    GpuConfig cfg = test::tinyConfig(2);
    Gpu gpu(cfg, {findApp("BFS"), findApp("FFT")});
    gpu.run(20000);
    EXPECT_EQ(goldenDigest(gpu), kDigestCatalogPair);
}

TEST(GoldenDigest, KnobStormLocked)
{
    // Exercise every runtime knob mid-run: TLP changes, L1/L2 bypass,
    // way partitioning, and checkpoint windows between run() chunks.
    GpuConfig cfg = test::tinyConfig(2);
    Gpu gpu(cfg, {findApp("GUPS"), test::cacheApp()});
    gpu.setAppL2WayPartition(0, 0, 4);
    gpu.setAppL2WayPartition(1, 4, 4);
    for (int window = 0; window < 10; ++window) {
        gpu.run(1500);
        gpu.checkpoint();
        gpu.setAppTlp(0, 1 + (window % 8));
        gpu.setAppTlp(1, 8 - (window % 8));
        gpu.setAppL1Bypass(0, window % 2 == 0);
        gpu.setAppL2Bypass(0, window % 3 == 0);
    }
    gpu.run(5000);
    EXPECT_EQ(goldenDigest(gpu), kDigestKnobStorm);
}

TEST(GoldenDigest, ResetRoundTripLocked)
{
    // reset(flush_caches=false) keeps cache contents but restarts the
    // cursors and counters; the second measurement is part of the
    // locked behaviour (checkpoint()-window accounting included).
    GpuConfig cfg = test::tinyConfig(2);
    Gpu gpu(cfg, {test::cacheApp("WARM", 3), findApp("BFS")});
    gpu.run(8000);
    gpu.reset(/*flush_caches=*/false);
    gpu.checkpoint();
    gpu.run(8000);
    EXPECT_EQ(goldenDigest(gpu), kDigestResetRoundTrip);
}

TEST(GoldenDigest, StandardMachineLocked)
{
    // The default GpuConfig (16 cores, 8 per app) that every figure
    // runs on, where most core-cycles wait on memory: at TLP 1 few
    // warps keep the cores idle, at TLP 24 the MSHRs fill and loads
    // park on structural stalls. Each case runs with and without the
    // quiescence fast-forward.
    GpuConfig cfg;
    cfg.numApps = 2;
    for (const auto &[tlp, digest] :
         {std::pair{1u, kDigestStandardTlp1},
          std::pair{24u, kDigestStandardTlp24}}) {
        for (const bool fast_forward : {true, false}) {
            Gpu gpu(cfg, {findApp("BFS"), findApp("FFT")});
            gpu.setFastForward(fast_forward);
            gpu.setAppTlp(0, tlp);
            gpu.setAppTlp(1, tlp);
            gpu.run(20000);
            EXPECT_EQ(goldenDigest(gpu), digest)
                << "TLP " << tlp << " fast-forward " << fast_forward
                << ": 0x" << std::hex << goldenDigest(gpu);
        }
    }
}

TEST(GoldenDigest, DigestDetectsBehaviouralDifferences)
{
    // Sanity: the digest is sensitive — a one-cycle difference or a
    // different TLP setting must move it.
    GpuConfig cfg = test::tinyConfig(2);
    Gpu a(cfg, {test::streamingApp(), test::cacheApp()});
    Gpu b(cfg, {test::streamingApp(), test::cacheApp()});
    a.run(5000);
    b.run(5001);
    EXPECT_NE(goldenDigest(a), goldenDigest(b));

    Gpu c(cfg, {test::streamingApp(), test::cacheApp()});
    c.setAppTlp(0, 2);
    c.run(5000);
    EXPECT_NE(goldenDigest(a), goldenDigest(c));
}

TEST(GoldenDigest, DigestIsDeterministic)
{
    GpuConfig cfg = test::tinyConfig(2);
    Gpu a(cfg, {test::streamingApp(), test::cacheApp()});
    Gpu b(cfg, {test::streamingApp(), test::cacheApp()});
    a.run(5000);
    b.run(5000);
    EXPECT_EQ(goldenDigest(a), goldenDigest(b));
}

} // namespace
} // namespace ebm
