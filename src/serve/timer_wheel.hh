/**
 * @file
 * The reactor's per-loop deadline wheel, header-only. A node type
 * carries its own intrusive links, so arming allocates nothing:
 *
 *     struct Node {
 *         std::chrono::steady_clock::time_point deadline;
 *         Node *timerPrev = nullptr, *timerNext = nullptr;
 *         int timerSlot = -1;  // < 0: disarmed
 *     };
 */

#ifndef QDEL_SERVE_TIMER_WHEEL_HH
#define QDEL_SERVE_TIMER_WHEEL_HH

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qdel {
namespace serve {

/**
 * Hashed timing wheel: 256 slots x 10ms ticks. arm()/disarm() are O(1)
 * pointer splices; advance() visits only the slots the clock crossed
 * and checks each resident's absolute deadline, so entries further
 * than one rotation out are merely re-homed once per rotation.
 */
template <typename Node>
class TimerWheel
{
  public:
    using Clock = std::chrono::steady_clock;

    static constexpr int kTickMs = 10;
    static constexpr int64_t kSlots = 256;  // Power of two.

    TimerWheel() : lastTick_(tickOf(Clock::now())) {}

    /** epoll_wait budget: tick-resolution while anything is armed. */
    int pollTimeoutMs() const { return armed_ > 0 ? kTickMs : 500; }

    void
    arm(Node *c, Clock::time_point deadline)
    {
        disarm(c);
        // Never arm into the tick being/just scanned: a deadline inside
        // the current tick lands in the next one and expires there.
        const int64_t tick = std::max(tickOf(deadline), lastTick_ + 1);
        const size_t slot = static_cast<size_t>(tick & (kSlots - 1));
        c->timerSlot = static_cast<int>(slot);
        c->timerPrev = nullptr;
        c->timerNext = slots_[slot];
        if (slots_[slot] != nullptr)
            slots_[slot]->timerPrev = c;
        slots_[slot] = c;
        ++armed_;
    }

    void
    disarm(Node *c)
    {
        if (c->timerSlot < 0)
            return;
        if (c->timerPrev != nullptr)
            c->timerPrev->timerNext = c->timerNext;
        else
            slots_[c->timerSlot] = c->timerNext;
        if (c->timerNext != nullptr)
            c->timerNext->timerPrev = c->timerPrev;
        c->timerPrev = nullptr;
        c->timerNext = nullptr;
        c->timerSlot = -1;
        --armed_;
    }

    /** Advance to @p now; expired nodes land in @p expired. */
    void
    advance(Clock::time_point now, std::vector<Node *> &expired)
    {
        const int64_t now_tick = tickOf(now);
        if (now_tick <= lastTick_)
            return;
        int64_t from = lastTick_ + 1;
        // After a stall longer than one rotation every slot is due
        // exactly once; scanning further would revisit slots.
        if (now_tick - from >= kSlots)
            from = now_tick - kSlots + 1;
        lastTick_ = now_tick;
        for (int64_t t = from; t <= now_tick; ++t) {
            Node *c = slots_[t & (kSlots - 1)];
            while (c != nullptr) {
                Node *next = c->timerNext;
                if (c->deadline <= now) {
                    disarm(c);
                    expired.push_back(c);
                } else {
                    // Resident from a later rotation (or due later in
                    // this tick): re-home it past lastTick_.
                    disarm(c);
                    arm(c, c->deadline);
                }
                c = next;
            }
        }
    }

  private:
    static int64_t
    tickOf(Clock::time_point tp)
    {
        return std::chrono::duration_cast<std::chrono::milliseconds>(
                   tp.time_since_epoch())
                   .count() /
               kTickMs;
    }

    Node *slots_[kSlots] = {};
    int64_t lastTick_ = 0;
    size_t armed_ = 0;
};

} // namespace serve
} // namespace qdel

#endif // QDEL_SERVE_TIMER_WHEEL_HH
