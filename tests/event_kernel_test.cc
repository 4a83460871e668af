/**
 * @file
 * Intrusive event-kernel tests: wheel/heap ordering across the
 * horizon, wrap-around, deschedule/reschedule of in-flight events,
 * misuse panics, monotonic time across run/step boundaries, a
 * randomized execution-order equivalence check against the preserved
 * closure/priority-queue kernel (LegacyEventQueue), and a randomized
 * check of the priority band against a (tick, band, order) sort.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "legacy_event_queue.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace piranha {
namespace {

// The wheel's geometry: deltas below the horizon are filed in the
// wheel, at or above it in the far-future heap.
constexpr Tick kBucket = Tick(1) << EventQueue::kBucketShift;
constexpr Tick kHorizon = EventQueue::kNumBuckets * kBucket;

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
    // A delta one bucket short of the horizon lands in the wheel's
    // last reachable bucket (wrap-around index); the horizon itself
    // goes to the heap.
    LogEvent lastBucket(&log, 1), firstHeap(&log, 2), far(&log, 3);
    eq.scheduleIn(lastBucket, kHorizon - kBucket);
    eq.scheduleIn(firstHeap, kHorizon);
    eq.scheduleIn(far, kHorizon + 1);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventKernel, WheelWrapAroundKeepsTickOrder)
{
    EventQueue eq;
    std::vector<int> log;
    // March time forward so bucket indices wrap the wheel several
    // times; events scheduled at mixed deltas must still fire in
    // global tick order. Each lap advances 25/32 of the horizon.
    const Tick lap_ticks = kHorizon / 32 * 25 + 37;
    const Tick back = kHorizon / 128 * 25;
    std::vector<std::unique_ptr<LogEvent>> events;
    int id = 0;
    Tick when = 0;
    std::vector<std::pair<Tick, int>> expected;
    for (int lap = 0; lap < 10; ++lap) {
        when += lap_ticks; // crosses the wrap point most laps
        events.push_back(std::make_unique<LogEvent>(&log, id));
        eq.schedule(*events.back(), when);
        expected.push_back({when, id});
        ++id;
        // A nearer event inserted later must still fire earlier.
        events.push_back(std::make_unique<LogEvent>(&log, id));
        eq.schedule(*events.back(), when - back);
        expected.push_back({when - back, id});
        ++id;
    }
    // The same laps chained: each is scheduled when the previous one
    // fires, so both of its events are filed in the wheel.
    int chained = 100;
    std::function<void(int)> run_lap = [&](int lap) {
        Tick at = eq.curTick() + lap_ticks;
        int far_id = chained++, near_id = chained++;
        expected.push_back({at - back, near_id});
        expected.push_back({at, far_id});
        eq.schedule(at, [&, far_id, lap] {
            log.push_back(far_id);
            if (lap + 1 < 10)
                run_lap(lap + 1);
        });
        eq.schedule(at - back,
                    [&log, near_id] { log.push_back(near_id); });
    };
    eq.schedule(3 * kHorizon, [&] { run_lap(0); });
    EXPECT_TRUE(eq.run());
    // Same-tick ties, if any, keep schedule order.
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
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
              case 1: // within two buckets
                delta = rng.below(static_cast<std::uint32_t>(2 * kBucket));
                break;
              case 2: // straddles the horizon
                delta = kHorizon - 10000 + rng.below(20000);
                break;
              default: // far heap
                delta = kHorizon + kHorizon / 8 + rng.below(100000);
                break;
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

TEST(EventKernel, RandomizedPriorityBandOrder)
{
    // Normal and priority events share ticks on the 500-ps
    // interconnect grid and the 2000-ps chip clock; some land beyond
    // the horizon. They must run in the order of a sort by (tick,
    // band, schedule order), priority band first.
    struct Rec
    {
        Tick when;
        int band; //!< 0 priority, 1 normal
        int id;   //!< schedule order
    };
    auto bucket = [](Tick t) { return t >> EventQueue::kBucketShift; };
    for (std::uint64_t seed : {1u, 2u, 3u, 7u, 99u}) {
        EventQueue eq;
        Pcg32 rng(seed);
        std::vector<int> log;
        std::vector<std::unique_ptr<LogEvent>> events;
        std::vector<Rec> recs;
        auto add = [&](Tick when, bool prio) {
            int id = static_cast<int>(events.size());
            events.push_back(std::make_unique<LogEvent>(&log, id));
            if (prio)
                eq.schedulePriority(*events.back(), when);
            else
                eq.schedule(*events.back(), when);
            recs.push_back(Rec{when, prio ? 0 : 1, id});
        };
        // Four rounds, each scheduled after the previous one ran part
        // way, so pending events of both bands meet new ones.
        for (int round = 0; round < 4; ++round) {
            // Next chip-clock edge after now: both grids line up.
            Tick base = (eq.curTick() / 2000 + 1) * 2000;
            for (int i = 0; i < 300; ++i) {
                Tick when = base + (rng.below(2)
                                        ? 500 * Tick(rng.below(80))
                                        : 2000 * Tick(rng.below(20)));
                if (rng.below(16) == 0)
                    when += kHorizon; // far heap
                add(when, rng.below(2) != 0);
            }
            // Grid points that share a bucket with the next one:
            // scheduling the later tick first files the earlier one
            // into a bucket that already holds a later tick.
            int pairs = 0;
            for (Tick t = base; pairs < 8; t += 500) {
                if (bucket(t) != bucket(t + 500))
                    continue;
                add(t + 500, rng.below(2) != 0);
                add(t, rng.below(2) != 0);
                add(t + 500, rng.below(2) != 0);
                ++pairs;
            }
            eq.run(base + 2000 * Tick(10 + rng.below(10)));
        }
        EXPECT_TRUE(eq.run());
        std::sort(recs.begin(), recs.end(), [](const Rec &a, const Rec &b) {
            return std::tie(a.when, a.band, a.id) <
                   std::tie(b.when, b.band, b.id);
        });
        ASSERT_EQ(log.size(), recs.size());
        for (std::size_t i = 0; i < recs.size(); ++i)
            ASSERT_EQ(log[i], recs[i].id)
                << "seed " << seed << " position " << i;
    }
}

} // namespace
} // namespace piranha
