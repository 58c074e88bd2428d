/**
 * @file
 * The simulator's per-cycle path allocates nothing once warmed: every
 * queue (crossbar VOQs and output ports, partition input queues, DRAM
 * slots, L1-hit completions, response heaps and holdovers) keeps the
 * storage of its high-water mark. The crossbar output rings have no
 * structural bound (stores take no credit), so "warmed" means the run
 * has been through its own high-water marks once: the standard two-app
 * machine runs 50k cycles, reset()s to cycle 0 (which keeps every
 * queue's storage) and runs the same 50k cycles again, and the second
 * run must make no call to operator new.
 *
 * The binary's global operator new counts allocations.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "harness/experiment.hpp"
#include "sim/gpu.hpp"
#include "workload/app_catalog.hpp"

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

/** Allocations made by the second 50k-cycle run of @p first +
 * @p second at TLP 24. */
std::uint64_t
allocationsOfWarmRerun(const char *first, const char *second)
{
    Gpu gpu(Experiment::standardConfig(2),
            std::vector<AppProfile>{findApp(first), findApp(second)});
    gpu.setAppTlp(0, 24);
    gpu.setAppTlp(1, 24);
    gpu.run(50000);
    gpu.reset();
    const std::uint64_t before = g_allocations.load();
    gpu.run(50000);
    return g_allocations.load() - before;
}

TEST(GpuAllocation, WarmMemoryBoundPairRunsAllocationFree)
{
    EXPECT_EQ(allocationsOfWarmRerun("BFS", "FFT"), 0u);
}

TEST(GpuAllocation, WarmComputeBoundPairRunsAllocationFree)
{
    EXPECT_EQ(allocationsOfWarmRerun("BLK", "RAY"), 0u);
}

} // namespace
} // namespace ebm
