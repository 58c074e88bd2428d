#include "common/job_pool.hpp"

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/runtime_config.hpp"

namespace ebm {
namespace {

TEST(JobPool, RunsEverySubmittedJob)
{
    std::vector<int> slots(100, 0);
    {
        JobPool pool(4);
        for (std::size_t i = 0; i < slots.size(); ++i)
            pool.submit([&slots, i] { slots[i] = static_cast<int>(i); });
        pool.wait();
    }
    for (std::size_t i = 0; i < slots.size(); ++i)
        EXPECT_EQ(slots[i], static_cast<int>(i));
}

TEST(JobPool, BackPressureBoundsTheQueueButLosesNothing)
{
    // Queue depth 2 with many more submissions: submitters block
    // instead of buffering unboundedly, and every job still runs.
    std::atomic<int> ran{0};
    {
        JobPool pool(2, /*queue_depth=*/2);
        for (int i = 0; i < 500; ++i)
            pool.submit([&ran] { ran.fetch_add(1); });
        pool.wait();
    }
    EXPECT_EQ(ran.load(), 500);
}

TEST(JobPool, WaitCanBeCalledRepeatedly)
{
    JobPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 2);
}

TEST(JobPool, WaitRethrowsTheFirstJobException)
{
    JobPool pool(2);
    for (int i = 0; i < 8; ++i) {
        pool.submit([] {
            throw FatalError({Errc::RunFailed, "worker died"});
        });
    }
    bool threw = false;
    try {
        pool.wait();
    } catch (const FatalError &e) {
        threw = true;
        EXPECT_NE(std::string(e.what()).find("worker died"),
                  std::string::npos);
    }
    EXPECT_TRUE(threw);

    // The pool survives: later exception-free rounds work.
    std::atomic<int> ran{0};
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(JobPool, DefaultJobsPrefersOverrideThenEnv)
{
    const unsigned from_env = JobPool::defaultJobs();
    EXPECT_GE(from_env, 1u);
    {
        RuntimeConfig::Override jobs([](RuntimeConfig &c) { c.jobs = 7; });
        EXPECT_EQ(JobPool::defaultJobs(), 7u) << "the override wins";
        JobPool pool;
        EXPECT_EQ(pool.workers(), 7u);
    }
    EXPECT_EQ(JobPool::defaultJobs(), from_env);
}

TEST(JobPool, DefaultJobsRejectsTrailingGarbageInEnv)
{
    const auto jobsFor = [](const char *value) {
        return RuntimeConfig::parse([value](const char *name) {
                   return std::string(name) == "EBM_JOBS" ? value
                                                          : nullptr;
               }).jobs;
    };
    const unsigned fallback = jobsFor(nullptr);
    EXPECT_GE(fallback, 1u);

    // The historical hand-rolled strtoul accepted "8x" as 8; the
    // shared strict parser rejects it (with a warning) and falls back
    // to the hardware default instead.
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(jobsFor("8x"), fallback);
    EXPECT_EQ(jobsFor("-4"), fallback);
    ::testing::internal::GetCapturedStderr();

    // An explicit 0 means "auto", like the constructor's 0.
    EXPECT_EQ(jobsFor("0"), fallback);
    EXPECT_EQ(jobsFor("6"), 6u);
}

} // namespace
} // namespace ebm
