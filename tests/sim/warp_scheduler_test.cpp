#include "sim/warp_scheduler.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace ebm {
namespace {

/**
 * Set the readiness of every warp of @p sched, built from @p ids in
 * age order, to @p is_ready(its warp id).
 */
template <typename Pred>
void
setReadyWhere(WarpScheduler &sched, const std::vector<WarpId> &ids,
              Pred is_ready)
{
    for (std::uint32_t pos = 0; pos < ids.size(); ++pos)
        sched.setReady(pos, is_ready(ids[pos]));
}

TEST(WarpScheduler, PicksOldestReadyFirst)
{
    const std::vector<WarpId> ids = {0, 2, 4, 6};
    WarpScheduler sched(ids, 4);
    setReadyWhere(sched, ids, [](WarpId) { return true; });
    EXPECT_EQ(sched.pickReady(), 0u);
}

TEST(WarpScheduler, SkipsNotReadyWarps)
{
    const std::vector<WarpId> ids = {0, 2, 4, 6};
    WarpScheduler sched(ids, 4);
    setReadyWhere(sched, ids, [](WarpId id) { return id >= 4; });
    EXPECT_EQ(sched.pickReady(), 4u);
}

TEST(WarpScheduler, GreedyStaysWithLastIssued)
{
    const std::vector<WarpId> ids = {0, 2, 4};
    WarpScheduler sched(ids, 3);
    sched.issuedAt(1); // warp 2
    setReadyWhere(sched, ids, [](WarpId) { return true; });
    EXPECT_EQ(sched.pickReady(), 2u)
        << "greedy: keep issuing from the same warp";
}

TEST(WarpScheduler, GreedyFallsBackToOldestWhenStalled)
{
    const std::vector<WarpId> ids = {0, 2, 4};
    WarpScheduler sched(ids, 3);
    sched.issuedAt(1); // warp 2
    setReadyWhere(sched, ids, [](WarpId id) { return id != 2; });
    EXPECT_EQ(sched.pickReady(), 0u);
}

TEST(WarpScheduler, ReturnsNoWarpWhenNothingReady)
{
    const std::vector<WarpId> ids = {0, 2};
    WarpScheduler sched(ids, 2);
    setReadyWhere(sched, ids, [](WarpId) { return false; });
    EXPECT_EQ(sched.pickReady(), WarpScheduler::kNoWarp);
    EXPECT_FALSE(sched.anyActiveReady());
}

TEST(WarpScheduler, SwlHidesWarpsBeyondLimit)
{
    const std::vector<WarpId> ids = {0, 2, 4, 6};
    WarpScheduler sched(ids, /*tlp_limit=*/2);
    // Only warps 0 and 2 are exposed; 4 is ready but invisible.
    setReadyWhere(sched, ids, [](WarpId id) { return id >= 4; });
    EXPECT_EQ(sched.pickReady(), WarpScheduler::kNoWarp);
    EXPECT_FALSE(sched.anyActiveReady());
}

TEST(WarpScheduler, SwlLimitChangeTakesEffect)
{
    const std::vector<WarpId> ids = {0, 2, 4, 6};
    WarpScheduler sched(ids, 1);
    setReadyWhere(sched, ids, [](WarpId id) { return id == 2; });
    EXPECT_EQ(sched.pickReady(), WarpScheduler::kNoWarp);
    sched.setTlpLimit(2);
    EXPECT_EQ(sched.pickReady(), 2u);
}

TEST(WarpScheduler, GreedyWarpOutsideNewLimitIgnored)
{
    const std::vector<WarpId> ids = {0, 2, 4, 6};
    WarpScheduler sched(ids, 4);
    sched.issuedAt(3); // warp 6
    sched.setTlpLimit(2);
    setReadyWhere(sched, ids, [](WarpId) { return true; });
    EXPECT_EQ(sched.pickReady(), 0u)
        << "warp 6 is outside the SWL window now";
}

TEST(WarpScheduler, LimitClampedToContextCount)
{
    const std::vector<WarpId> ids = {0, 2};
    WarpScheduler sched(ids, 99);
    EXPECT_EQ(sched.tlpLimit(), 2u);
    sched.setTlpLimit(0);
    EXPECT_EQ(sched.tlpLimit(), 1u) << "at least one warp stays active";
}

TEST(WarpScheduler, ActiveWarpsMatchesLimit)
{
    const std::vector<WarpId> ids = {1, 3, 5, 7};
    WarpScheduler sched(ids, 3);
    // Exactly the first three warps are exposed: each is picked when
    // it alone is ready, and the fourth never is.
    for (WarpId id : {1u, 3u, 5u}) {
        setReadyWhere(sched, ids, [id](WarpId w) { return w == id; });
        EXPECT_EQ(sched.pickReady(), id);
    }
    setReadyWhere(sched, ids, [](WarpId w) { return w == 7; });
    EXPECT_EQ(sched.pickReady(), WarpScheduler::kNoWarp);
}

TEST(WarpScheduler, OffchipMaskHonoursTheSwlWindow)
{
    const std::vector<WarpId> ids = {0, 2, 4, 6};
    WarpScheduler sched(ids, 2);
    EXPECT_FALSE(sched.anyActiveOffchip());
    sched.setOffchip(3, true); // warp 6, outside the window
    EXPECT_FALSE(sched.anyActiveOffchip());
    sched.setTlpLimit(4);
    EXPECT_TRUE(sched.anyActiveOffchip());
    sched.setTlpLimit(2);
    sched.setOffchip(1, true); // warp 2, inside
    EXPECT_TRUE(sched.anyActiveOffchip());
    sched.setOffchip(1, false);
    EXPECT_FALSE(sched.anyActiveOffchip());
}

TEST(WarpSchedulerDeath, EmptyContextListIsFatal)
{
    EXPECT_EBM_FATAL({ WarpScheduler sched({}, 1); }, "contexts");
}

} // namespace
} // namespace ebm
