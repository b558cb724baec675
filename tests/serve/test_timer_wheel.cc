/**
 * @file
 * Direct tests of the reactor's hashed timing wheel, on explicit
 * clock values: next-tick expiry, re-homing of later rotations, a
 * stall longer than one rotation, and O(1) unlinking from any list
 * position.
 */

#include <algorithm>
#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "serve/timer_wheel.hh"

namespace qdel {
namespace serve {
namespace {

struct Node
{
    std::chrono::steady_clock::time_point deadline{};
    Node *timerPrev = nullptr;
    Node *timerNext = nullptr;
    int timerSlot = -1;
};

using Wheel = TimerWheel<Node>;
using Clock = Wheel::Clock;

std::chrono::milliseconds
ms(int64_t count)
{
    return std::chrono::milliseconds(count);
}

class TimerWheelTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Start on a tick boundary and sync the wheel to it, so every
        // time below is an exact offset from the current tick.
        const auto since =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now().time_since_epoch());
        t0_ = Clock::time_point(since - since % ms(Wheel::kTickMs) +
                                ms(Wheel::kTickMs));
        advance(t0_);
    }

    void
    arm(Node &node, Clock::time_point deadline)
    {
        node.deadline = deadline;
        wheel_.arm(&node, deadline);
    }

    std::vector<Node *>
    advance(Clock::time_point now)
    {
        std::vector<Node *> expired;
        wheel_.advance(now, expired);
        return expired;
    }

    Wheel wheel_;
    Clock::time_point t0_;
};

TEST_F(TimerWheelTest, DeadlineInsideTheCurrentTickFiresOnTheNextTick)
{
    Node node;
    arm(node, t0_ + ms(3));  // Already in the tick just scanned.
    EXPECT_EQ(wheel_.pollTimeoutMs(), Wheel::kTickMs);
    EXPECT_TRUE(advance(t0_ + ms(9)).empty());
    EXPECT_EQ(advance(t0_ + ms(Wheel::kTickMs)),
              std::vector<Node *>{&node});
    EXPECT_EQ(node.timerSlot, -1);
    EXPECT_EQ(wheel_.pollTimeoutMs(), 500) << "nothing armed any more";
}

TEST_F(TimerWheelTest, LaterRotationIsReHomedNotExpired)
{
    const int64_t rotation = Wheel::kSlots * Wheel::kTickMs;
    Node near;
    Node far;
    arm(near, t0_ + ms(50));
    // Same slot as near, one rotation later.
    arm(far, t0_ + ms(50 + rotation));
    ASSERT_EQ(near.timerSlot, far.timerSlot);
    EXPECT_EQ(advance(t0_ + ms(60)), std::vector<Node *>{&near});
    EXPECT_GE(far.timerSlot, 0) << "re-homed, still armed";
    EXPECT_TRUE(advance(t0_ + ms(rotation + 40)).empty());
    EXPECT_EQ(advance(t0_ + ms(rotation + 50)), std::vector<Node *>{&far});
}

TEST_F(TimerWheelTest, StallLongerThanARotationVisitsEachSlotOnce)
{
    // One node per slot, plus one due long after the stall ends.
    std::vector<Node> nodes(Wheel::kSlots);
    for (int64_t i = 0; i < Wheel::kSlots; ++i) {
        arm(nodes[static_cast<size_t>(i)],
            t0_ + ms(Wheel::kTickMs * (i + 1)));
    }
    const int64_t rotation = Wheel::kSlots * Wheel::kTickMs;
    Node later;
    arm(later, t0_ + ms(20 * rotation));

    auto expired = advance(t0_ + ms(10 * rotation));
    ASSERT_EQ(expired.size(), nodes.size());
    std::sort(expired.begin(), expired.end());
    EXPECT_EQ(std::adjacent_find(expired.begin(), expired.end()),
              expired.end())
        << "a node expired twice";
    for (const Node &node : nodes)
        EXPECT_EQ(node.timerSlot, -1);
    EXPECT_GE(later.timerSlot, 0);
    EXPECT_EQ(advance(t0_ + ms(20 * rotation)),
              std::vector<Node *>{&later});
}

TEST_F(TimerWheelTest, DisarmHeadMiddleOrTailKeepsTheSlotList)
{
    // arm() pushes at the head: the slot list is nodes[2], [1], [0].
    for (int victim = 0; victim < 3; ++victim) {
        SCOPED_TRACE(victim);
        const auto base = t0_ + ms(100 * victim);
        Node nodes[3];
        for (Node &node : nodes)
            arm(node, base + ms(55));
        ASSERT_EQ(nodes[0].timerSlot, nodes[2].timerSlot);
        Node &removed = nodes[2 - victim];  // head, middle, tail
        wheel_.disarm(&removed);
        EXPECT_EQ(removed.timerSlot, -1);
        EXPECT_EQ(removed.timerPrev, nullptr);
        EXPECT_EQ(removed.timerNext, nullptr);
        wheel_.disarm(&removed);  // A second disarm is a no-op.

        auto expired = advance(base + ms(60));
        std::sort(expired.begin(), expired.end());
        std::vector<Node *> rest;
        for (Node &node : nodes) {
            if (&node != &removed)
                rest.push_back(&node);
        }
        std::sort(rest.begin(), rest.end());
        EXPECT_EQ(expired, rest);
        EXPECT_EQ(wheel_.pollTimeoutMs(), 500);
    }
}

} // namespace
} // namespace serve
} // namespace qdel
