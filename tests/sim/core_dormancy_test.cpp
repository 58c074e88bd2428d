/**
 * @file
 * Lockstep check of core dormancy. Machine A runs normally, so cores
 * whose issue cycle provably repeats replay only its counter adds
 * (SimtCore::dormantTick). Machine B restore()s its own snapshot
 * before every cycle; restore() clears dormancy, so B always takes
 * the full issue path. After every cycle, every core's counters must
 * match. A core left dormant across a state change it should have
 * seen (an L1 fill, a drained crossbar VOQ, a knob flip) shows up as
 * a counter diverging on the cycle it happens.
 */
#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>

#include "../test_util.hpp"
#include "harness/experiment.hpp"
#include "sim/golden_digest.hpp"
#include "sim/gpu.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {
namespace {

constexpr Cycle kCycles = 5000;

/** Machine A's dormant core-cycles, out of all its core-cycles. */
struct Lockstep
{
    std::uint64_t dormantCoreCycles = 0;
    std::uint64_t coreCycles = 0;
};

void
expectSameCounters(const Gpu &a, const Gpu &b)
{
    ASSERT_EQ(a.now(), b.now());
    for (CoreId c = 0; c < a.numCores(); ++c) {
        const SimtCore &x = a.core(c);
        const SimtCore &y = b.core(c);
        ASSERT_EQ(x.idleCycles(), y.idleCycles())
            << "core " << c << " cycle " << a.now();
        ASSERT_EQ(x.stallCycles(), y.stallCycles())
            << "core " << c << " cycle " << a.now();
        ASSERT_EQ(x.memWaitCycles(), y.memWaitCycles())
            << "core " << c << " cycle " << a.now();
        ASSERT_EQ(x.instrsRetired(), y.instrsRetired())
            << "core " << c << " cycle " << a.now();
        ASSERT_EQ(x.lostLocality(), y.lostLocality())
            << "core " << c << " cycle " << a.now();
    }
}

/**
 * Tick A and B @p cycles times in lockstep, calling @p knobs(gpu,
 * cycle) on both before each cycle, and compare after every cycle.
 */
Lockstep
runLockstep(Gpu &a, Gpu &b, Cycle cycles,
            const std::function<void(Gpu &, Cycle)> &knobs = {})
{
    Lockstep seen;
    for (Cycle i = 0; i < cycles; ++i) {
        if (knobs) {
            knobs(a, i);
            knobs(b, i);
        }
        b.restore(b.snapshot());
        for (CoreId c = 0; c < a.numCores(); ++c) {
            if (b.core(c).dormant()) {
                ADD_FAILURE() << "core " << c << " dormant after restore";
                return seen;
            }
            seen.dormantCoreCycles += a.core(c).dormant() ? 1 : 0;
        }
        seen.coreCycles += a.numCores();
        a.tick();
        b.tick();
        expectSameCounters(a, b);
        if (::testing::Test::HasFatalFailure())
            return seen;
    }
    EXPECT_EQ(goldenDigest(a), goldenDigest(b));
    return seen;
}

struct PairCase
{
    const char *a;
    const char *b;
    std::uint32_t tlp;
};

/** Keeps the test names ctest lists free of pointer bytes. */
void
PrintTo(const PairCase &pc, std::ostream *os)
{
    *os << pc.a << "+" << pc.b << " tlp " << pc.tlp;
}

class CoreDormancyLockstep : public ::testing::TestWithParam<PairCase>
{
};

TEST_P(CoreDormancyLockstep, CountersMatchTheFullIssuePathEveryCycle)
{
    const PairCase &pc = GetParam();
    const std::vector<AppProfile> apps{findApp(pc.a), findApp(pc.b)};
    Gpu a(Experiment::standardConfig(2), apps);
    Gpu b(Experiment::standardConfig(2), apps);
    for (Gpu *gpu : {&a, &b}) {
        gpu->setAppTlp(0, pc.tlp);
        gpu->setAppTlp(1, pc.tlp);
    }
    const Lockstep seen = runLockstep(a, b, kCycles);
    // The comparison only means something if A's cores really slept.
    EXPECT_GT(seen.dormantCoreCycles, seen.coreCycles / 2)
        << seen.dormantCoreCycles << " of " << seen.coreCycles;
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, CoreDormancyLockstep,
    ::testing::Values(PairCase{"BFS", "FFT", 1}, PairCase{"BFS", "FFT", 4},
                      PairCase{"BFS", "FFT", 24},
                      PairCase{"BLK", "RAY", 1}, PairCase{"BLK", "RAY", 4},
                      PairCase{"BLK", "RAY", 24}),
    [](const ::testing::TestParamInfo<PairCase> &info) {
        return std::string(info.param.a) + info.param.b + "Tlp" +
               std::to_string(info.param.tlp);
    });

TEST(CoreDormancy, KnobStormKeepsLockstep)
{
    // TLP and L1-bypass flips end dormancy through setTlpLimit and the
    // L1 generation; reset(false) through refreshWarp. Each lands on
    // both machines before the same cycle.
    const std::vector<AppProfile> apps{findApp("BFS"), findApp("FFT")};
    Gpu a(Experiment::standardConfig(2), apps);
    Gpu b(Experiment::standardConfig(2), apps);
    const auto knobs = [](Gpu &gpu, Cycle i) {
        if (i % 700 == 0)
            gpu.setAppTlp(0, 1 + static_cast<std::uint32_t>(i / 700) % 24);
        if (i % 450 == 0)
            gpu.setAppTlp(1, 24 - static_cast<std::uint32_t>(i / 450) % 24);
        if (i % 900 == 300)
            gpu.setAppL1Bypass(0, (i / 900) % 2 == 0);
        if (i % 1100 == 500)
            gpu.setAppL1Bypass(1, (i / 1100) % 2 == 1);
        if (i == 2600)
            gpu.reset(false);
    };
    const Lockstep seen = runLockstep(a, b, kCycles, knobs);
    EXPECT_GT(seen.dormantCoreCycles, seen.coreCycles / 2)
        << seen.dormantCoreCycles << " of " << seen.coreCycles;
}

} // namespace
} // namespace ebm
