#include "common/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "../test_util.hpp"

namespace ebm {
namespace {

TEST(RingBuffer, StartsEmpty)
{
    RingBuffer<int> q(4);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.full());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.capacity(), 4u);
}

TEST(RingBuffer, FifoOrder)
{
    RingBuffer<int> q(4);
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_TRUE(q.empty());
}

TEST(RingBuffer, FullAtCapacity)
{
    RingBuffer<int> q(2);
    q.push(1);
    EXPECT_FALSE(q.full());
    q.push(2);
    EXPECT_TRUE(q.full());
}

TEST(RingBuffer, ClearEmpties)
{
    RingBuffer<int> q(4);
    q.push(1);
    q.push(2);
    q.clear();
    EXPECT_TRUE(q.empty());
    q.push(9);
    EXPECT_EQ(q.front(), 9);
}

TEST(RingBuffer, GrowthKeepsFifoOrderAcrossAWrappedHead)
{
    RingBuffer<int> q(4);
    // Advance the head so the queue wraps the end of the array.
    for (int i = 0; i < 3; ++i)
        q.push(-1);
    for (int i = 0; i < 3; ++i)
        q.pop();
    for (int i = 0; i < 4; ++i)
        q.push(i); // Occupies slots 3, 0, 1, 2.
    ASSERT_TRUE(q.full());
    for (int i = 4; i < 11; ++i)
        q.pushGrow(i); // Grows 4 -> 8 -> 16.
    EXPECT_EQ(q.capacity(), 16u);
    EXPECT_EQ(q.size(), 11u);
    for (int i = 0; i < 11; ++i)
        EXPECT_EQ(q.pop(), i);
    EXPECT_TRUE(q.empty());
}

TEST(RingBufferDeath, ZeroCapacityIsFatal)
{
    EXPECT_EBM_FATAL({ RingBuffer<int> q(0); }, "capacity");
}

TEST(RingBufferDeath, PushFullPanics)
{
    RingBuffer<int> q(1);
    q.push(1);
    EXPECT_EBM_FATAL(q.push(2), "full");
}

TEST(RingBufferDeath, PopEmptyPanics)
{
    RingBuffer<int> q(1);
    EXPECT_EBM_FATAL(q.pop(), "empty");
}

TEST(RingBufferDeath, FrontEmptyPanics)
{
    RingBuffer<int> q(1);
    EXPECT_EBM_FATAL(q.front(), "empty");
}

TEST(RingBuffer, MoveOnlyPayload)
{
    RingBuffer<std::unique_ptr<int>> q(2);
    q.push(std::make_unique<int>(42));
    auto p = q.pop();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 42);
}

} // namespace
} // namespace ebm
