/**
 * @file
 * Lockstep check of parked cores and the response wheel. Machine A
 * runs normally, so a core whose issue cycle provably repeats parks
 * and only a fill, an L1-hit completion, a knob, reset() or restore()
 * wakes it; its counters are settled whenever a public call returns.
 * Machine B restore()s its own snapshot before every cycle, which
 * wakes every core and rebuilds the response wheel from the queues,
 * so B always takes the full issue path and visits every due
 * response. After every public call, every core's counters must
 * match. A core left parked across a state change it should have
 * seen (an L1 fill, a drained crossbar VOQ, a knob flip), or a
 * response the wheel never marked, shows up as a counter diverging.
 *
 * Each test also floors how often the wake or settle source it
 * exercises fired on A, so a case that stopped reaching it fails
 * instead of passing vacuously.
 */
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
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

/** What machine A did, counted in core-cycles or core wake-ups. */
struct Lockstep
{
    std::uint64_t parkedCoreCycles = 0; ///< Parked at a cycle's start.
    std::uint64_t coreCycles = 0;
    std::uint64_t fillWakes = 0; ///< Parked, then a fill arrived.
    std::uint64_t hitWakes = 0;  ///< Parked, then an L1 hit completed.
    std::uint64_t restoreWakes = 0; ///< Parked cores B's restore woke.
};

unsigned
count(std::uint64_t mask)
{
    return static_cast<unsigned>(std::popcount(mask));
}

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

/** B's step: restore its own snapshot (waking every core), tick. */
void
tickAwake(Gpu &b, Lockstep &seen)
{
    const Gpu::Snapshot snap = b.snapshot();
    seen.restoreWakes += count(b.parkedCores());
    b.restore(snap);
    EXPECT_EQ(b.parkedCores(), 0u) << "parked after restore";
    b.tick();
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
        // B's snapshot is A's state too: it says what is due at the
        // next cycle for each core A has parked.
        const Gpu::Snapshot due = b.snapshot();
        const std::uint64_t parked = a.parkedCores();
        seen.parkedCoreCycles += count(parked);
        seen.coreCycles += a.numCores();
        a.tick();
        tickAwake(b, seen);
        expectSameCounters(a, b);
        if (::testing::Test::HasFailure())
            return seen;
        for (std::uint64_t m = parked & ~a.parkedCores(); m != 0;
             m &= m - 1) {
            const auto c = static_cast<CoreId>(std::countr_zero(m));
            const auto &hits = due.cores[c].localPending;
            if (!hits.empty() && hits.top().readyAt <= a.now())
                ++seen.hitWakes;
            const auto &fills = due.xbar.response.outputReady[c];
            if (!fills.empty() && fills.front().readyAt <= a.now())
                ++seen.fillWakes;
        }
    }
    EXPECT_EQ(goldenDigest(a), goldenDigest(b));
    return seen;
}

/** Call @p knob; return how many of @p gpu's parked cores it woke. */
unsigned
wakesOf(Gpu &gpu, const std::function<void()> &knob)
{
    const std::uint64_t before = gpu.parkedCores();
    knob();
    return count(before & ~gpu.parkedCores());
}

/** The standard two-app machine with both apps at @p tlp. */
std::unique_ptr<Gpu>
pairMachine(const char *first, const char *second, std::uint32_t tlp)
{
    auto gpu = std::make_unique<Gpu>(
        Experiment::standardConfig(2),
        std::vector<AppProfile>{findApp(first), findApp(second)});
    gpu->setAppTlp(0, tlp);
    gpu->setAppTlp(1, tlp);
    return gpu;
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
    const auto a = pairMachine(pc.a, pc.b, pc.tlp);
    const auto b = pairMachine(pc.a, pc.b, pc.tlp);
    const Lockstep seen = runLockstep(*a, *b, kCycles);
    // The comparison only means something if A's cores really parked
    // and woke through the response wheel (each case sees about 1,700
    // to 3,200 fill wakes and 75 to 520 L1-hit wakes).
    EXPECT_GT(seen.parkedCoreCycles, seen.coreCycles / 2)
        << seen.parkedCoreCycles << " of " << seen.coreCycles;
    EXPECT_GT(seen.fillWakes, 1000u);
    EXPECT_GT(seen.hitWakes, 50u);
    EXPECT_GT(seen.restoreWakes, 1000u);
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
    // TLP and L1-bypass flips wake the app's cores through Gpu, and
    // reset(false) wakes every core. Each lands on both machines
    // before the same cycle; wakes are counted on A.
    const auto pa = pairMachine("BFS", "FFT", 24);
    const auto pb = pairMachine("BFS", "FFT", 24);
    Gpu &a = *pa;
    Gpu &b = *pb;
    unsigned tlp_wakes = 0;
    unsigned bypass_wakes = 0;
    unsigned reset_wakes = 0;
    const auto knobs = [&](Gpu &gpu, Cycle i) {
        unsigned ignored = 0;
        unsigned &tlp = &gpu == &a ? tlp_wakes : ignored;
        unsigned &bypass = &gpu == &a ? bypass_wakes : ignored;
        unsigned &reset = &gpu == &a ? reset_wakes : ignored;
        if (i % 700 == 0)
            tlp += wakesOf(gpu, [&] {
                gpu.setAppTlp(0,
                              1 + static_cast<std::uint32_t>(i / 700) % 24);
            });
        if (i % 450 == 0)
            tlp += wakesOf(gpu, [&] {
                gpu.setAppTlp(1,
                              24 - static_cast<std::uint32_t>(i / 450) % 24);
            });
        if (i % 900 == 300)
            bypass += wakesOf(gpu, [&] {
                gpu.setAppL1Bypass(0, (i / 900) % 2 == 0);
            });
        if (i % 1100 == 500)
            bypass += wakesOf(gpu, [&] {
                gpu.setAppL1Bypass(1, (i / 1100) % 2 == 1);
            });
        if (i == 2600)
            reset += wakesOf(gpu, [&] { gpu.reset(false); });
    };
    const Lockstep seen = runLockstep(a, b, kCycles, knobs);
    EXPECT_GT(seen.parkedCoreCycles, seen.coreCycles / 2)
        << seen.parkedCoreCycles << " of " << seen.coreCycles;
    EXPECT_GT(tlp_wakes, 50u);
    EXPECT_GT(bypass_wakes, 20u);
    EXPECT_GT(reset_wakes, 5u);
}

TEST(CoreDormancy, RestoredMachineMatchesItsSource)
{
    // A fresh machine restored from a mid-run snapshot wakes every
    // core and marks only each core's earliest pending response; the
    // later ones are found by re-marking after each visit. It must
    // then tick in step with the machine it was restored from.
    const auto source = pairMachine("BFS", "FFT", 24);
    source->run(kCycles / 2);
    const auto copy = pairMachine("BFS", "FFT", 24);
    copy->restore(source->snapshot());
    std::uint64_t parked = 0;
    for (Cycle i = 0; i < kCycles / 2; ++i) {
        source->tick();
        copy->tick();
        expectSameCounters(*source, *copy);
        ASSERT_FALSE(HasFailure());
        parked += count(copy->parkedCores());
    }
    EXPECT_EQ(goldenDigest(*source), goldenDigest(*copy));
    EXPECT_GT(parked, kCycles / 2 * source->numCores() / 2);
}

TEST(CoreDormancy, RunSettlesParkedCoresOnReturn)
{
    // A advances by run() in chunks of 1, 7 and 64 cycles; B ticks the
    // same cycles on the full path. Every return from run() must
    // settle the cores still parked, so both read the same counters.
    const std::vector<AppProfile> apps{test::streamingApp(),
                                       test::cacheApp()};
    Gpu a(test::tinyConfig(2), apps);
    Gpu b(test::tinyConfig(2), apps);
    for (Gpu *gpu : {&a, &b}) {
        gpu->setAppTlp(0, 1);
        gpu->setAppTlp(1, 1);
    }
    Lockstep seen;
    unsigned parked_returns = 0;
    const Cycle chunks[] = {1, 7, 64};
    for (unsigned i = 0; a.now() < kCycles; ++i) {
        const Cycle n = chunks[i % 3];
        a.run(n);
        parked_returns += a.parkedCores() != 0 ? 1 : 0;
        for (Cycle t = 0; t < n; ++t)
            tickAwake(b, seen);
        expectSameCounters(a, b);
        ASSERT_FALSE(HasFailure());
    }
    EXPECT_EQ(goldenDigest(a), goldenDigest(b));
    EXPECT_GT(parked_returns, 100u); // 208 seen
}

} // namespace
} // namespace ebm
