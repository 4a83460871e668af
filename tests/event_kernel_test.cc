/**
 * @file
 * Intrusive event-kernel tests: wheel/heap ordering across the
 * horizon, wrap-around, deschedule/reschedule of in-flight events,
 * misuse panics, monotonic time across run/step boundaries, and a
 * randomized execution-order equivalence check against the preserved
 * closure/priority-queue kernel (LegacyEventQueue).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "legacy_event_queue.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace piranha {
namespace {

// Wheel geometry mirrored from event_queue.h: 256 buckets of 2^11
// ticks. Deltas below the horizon are filed in the wheel, at or above
// it in the far-future heap.
constexpr Tick kBucket = Tick(1) << 11;
constexpr Tick kHorizon = 256 * kBucket;

/** Appends its id to a shared log when it fires. */
class LogEvent : public Event
{
  public:
    LogEvent(std::vector<int> *log, int id) : _log(log), _id(id) {}
    void process() override { _log->push_back(_id); }
    const char *eventName() const override { return "log"; }

  private:
    std::vector<int> *_log;
    int _id;
};

TEST(EventKernel, SameTickFifoAcrossWheelAndHeap)
{
    EventQueue eq;
    std::vector<int> log;
    // The rendezvous tick starts beyond the horizon (heap), then
    // events keep joining it as time advances into wheel range:
    // FIFO order must hold across both containers.
    const Tick t = kHorizon + 5000;
    LogEvent far0(&log, 0), far1(&log, 1), near2(&log, 2),
        near3(&log, 3);
    eq.schedule(far0, t); // heap
    eq.schedule(far1, t); // heap
    eq.schedule(10000, [&] {
        eq.schedule(near2, t); // now within horizon: wheel
        eq.schedule(near3, t); // wheel, same bucket, same tick
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.curTick(), t);
}

TEST(EventKernel, OrderPreservedAtWheelHorizonBoundary)
{
    EventQueue eq;
    std::vector<int> log;
    // Delta of 255 buckets lands in the wheel's last reachable
    // bucket (wrap-around index); 256 buckets goes to the heap.
    LogEvent lastBucket(&log, 1), firstHeap(&log, 2), far(&log, 3);
    eq.scheduleIn(lastBucket, 255 * kBucket);
    eq.scheduleIn(firstHeap, 256 * kBucket);
    eq.scheduleIn(far, 256 * kBucket + 1);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventKernel, WheelWrapAroundKeepsTickOrder)
{
    EventQueue eq;
    std::vector<int> log;
    // March time forward so bucket indices wrap the 256-entry wheel
    // several times; events scheduled at mixed deltas must still fire
    // in global tick order.
    std::vector<std::unique_ptr<LogEvent>> events;
    int id = 0;
    Tick when = 0;
    std::vector<std::pair<Tick, int>> expected;
    for (int lap = 0; lap < 10; ++lap) {
        when += 200 * kBucket + 37; // crosses the wrap point each lap
        events.push_back(std::make_unique<LogEvent>(&log, id));
        eq.schedule(*events.back(), when);
        expected.push_back({when, id});
        ++id;
        // A nearer event inserted later must still fire earlier.
        events.push_back(std::make_unique<LogEvent>(&log, id));
        eq.schedule(*events.back(), when - 50 * kBucket);
        expected.push_back({when - 50 * kBucket, id});
        ++id;
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_TRUE(eq.run());
    ASSERT_EQ(log.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(log[i], expected[i].second) << "position " << i;
}

TEST(EventKernel, DescheduleInFlightNeverFires)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent nearEv(&log, 1), farEv(&log, 2), survivor(&log, 3);
    eq.scheduleIn(nearEv, 100);          // wheel
    eq.scheduleIn(farEv, kHorizon + 10); // heap (stale-entry path)
    eq.scheduleIn(survivor, 200);
    eq.schedule(50, [&] {
        eq.deschedule(nearEv);
        eq.deschedule(farEv);
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(log, (std::vector<int>{3}));
    EXPECT_FALSE(nearEv.scheduled());
    EXPECT_FALSE(farEv.scheduled());
}

TEST(EventKernel, RescheduleMovesPendingEvent)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(&log, 1), b(&log, 2);
    eq.scheduleIn(a, 100);
    eq.scheduleIn(b, 300);
    // Move a past b; move b from heap range into wheel range.
    eq.schedule(10, [&] {
        eq.reschedule(a, 400);
        EXPECT_EQ(a.when(), 400u);
    });
    LogEvent farMover(&log, 3);
    eq.scheduleIn(farMover, kHorizon + 999);
    eq.schedule(20, [&] { eq.reschedule(farMover, 350); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(log, (std::vector<int>{2, 3, 1}));
}

TEST(EventKernel, SquashCancelsAndAllowsReuse)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent ev(&log, 7);
    eq.scheduleIn(ev, 100);
    ev.squash();
    EXPECT_FALSE(ev.scheduled());
    ev.squash(); // no-op when idle
    eq.scheduleIn(ev, 200);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(log, (std::vector<int>{7}));
}

TEST(EventKernelDeath, ScheduleInPastPanics)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent ev(&log, 0);
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(ev, 50), "past");
}

TEST(EventKernelDeath, DoubleSchedulePanics)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent ev(&log, 0);
    eq.scheduleIn(ev, 100);
    EXPECT_DEATH(eq.scheduleIn(ev, 200), "already scheduled");
}

TEST(EventKernelDeath, DescheduleIdleEventPanics)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent ev(&log, 0);
    EXPECT_DEATH(eq.deschedule(ev), "idle");
}

TEST(EventKernel, TimeIsMonotonicAcrossRunAndStep)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(600, [&] { ++fired; });
    EXPECT_FALSE(eq.run(500));
    EXPECT_EQ(eq.curTick(), 500u);
    // An earlier limit must not rewind the clock.
    EXPECT_FALSE(eq.run(400));
    EXPECT_EQ(eq.curTick(), 500u);
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.curTick(), 600u);
    EXPECT_EQ(fired, 1);
    // Draining an empty queue holds time still.
    EXPECT_TRUE(eq.run(100));
    EXPECT_EQ(eq.curTick(), 600u);
}

TEST(EventKernel, PendingAndExecutedCounts)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(&log, 1), b(&log, 2);
    eq.scheduleIn(a, 10);
    eq.scheduleIn(b, kHorizon + 10);
    eq.schedule(5, [] {});
    EXPECT_EQ(eq.pending(), 3u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventKernel, MemberEventIsReusableAcrossFires)
{
    struct Counter
    {
        int n = 0;
        void bump() { ++n; }
    } c;
    EventQueue eq;
    MemberEvent<Counter, &Counter::bump> ev(&c, "counter.bump");
    EXPECT_STREQ(ev.eventName(), "counter.bump");
    for (int i = 0; i < 5; ++i) {
        eq.scheduleIn(ev, 10);
        eq.run();
        EXPECT_FALSE(ev.scheduled());
    }
    EXPECT_EQ(c.n, 5);
}

TEST(EventKernel, EventPoolGrowsOnlyWithHighWaterMark)
{
    struct NopEvent : Event
    {
        void process() override {}
    };
    EventPool<NopEvent> pool;
    // Three in flight at the peak.
    NopEvent *a = pool.acquire();
    NopEvent *b = pool.acquire();
    NopEvent *c = pool.acquire();
    EXPECT_EQ(pool.size(), 3u);
    pool.release(a);
    pool.release(b);
    pool.release(c);
    // Steady-state churn below the mark reuses storage.
    for (int i = 0; i < 100; ++i) {
        NopEvent *x = pool.acquire();
        NopEvent *y = pool.acquire();
        pool.release(x);
        pool.release(y);
    }
    EXPECT_EQ(pool.size(), 3u);
}

TEST(EventKernel, DestructorOfScheduledEventDeschedules)
{
    EventQueue eq;
    std::vector<int> log;
    {
        LogEvent doomed(&log, 1);
        eq.scheduleIn(doomed, 100);
        LogEvent farDoomed(&log, 2);
        eq.scheduleIn(farDoomed, kHorizon + 100);
    } // both destroyed while pending
    LogEvent ok(&log, 3);
    eq.scheduleIn(ok, 200);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(log, (std::vector<int>{3}));
}

/**
 * Replays one pseudo-random schedule script into a queue. Each fired
 * event logs its id and may schedule children at deterministic deltas
 * spanning wheel range, the horizon boundary and far-heap range, so
 * both containers stay populated.
 */
template <class Queue>
std::vector<int>
runScript(Queue &q, std::uint64_t seed)
{
    std::vector<int> log;
    Pcg32 rng(seed);
    int nextId = 0;
    // Recursive closure: each event may spawn up to 3 children.
    std::function<void(int, int)> fire = [&](int id, int depth) {
        log.push_back(id);
        if (depth >= 4)
            return;
        unsigned kids = rng.below(4);
        for (unsigned k = 0; k < kids; ++k) {
            Tick delta;
            switch (rng.below(4)) {
              case 0: delta = rng.below(8) * 2000; break;       // hot
              case 1: delta = rng.below(4096); break;           // sub-bucket
              case 2: delta = 250 * 2048 + rng.below(20000); break; // boundary
              default: delta = 600000 + rng.below(100000); break;   // far
            }
            int kid = nextId++;
            q.scheduleIn(delta, [&fire, kid, depth] {
                fire(kid, depth + 1);
            });
        }
    };
    for (int r = 0; r < 40; ++r) {
        Tick at = rng.below(500000);
        int id = nextId++;
        q.schedule(at, [&fire, id] { fire(id, 0); });
    }
    q.run();
    return log;
}

TEST(EventKernel, RandomizedOrderMatchesLegacyKernel)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 42u, 1234u}) {
        LegacyEventQueue legacy;
        EventQueue wheel;
        std::vector<int> a = runScript(legacy, seed);
        std::vector<int> b = runScript(wheel, seed);
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b) << "wheel kernel diverged, seed " << seed;
        EXPECT_EQ(legacy.curTick(), wheel.curTick());
        EXPECT_EQ(legacy.executed(), wheel.executed());
    }
}

} // namespace
} // namespace piranha
