/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, determinism,
 * clock-domain conversion and the PCG32 generator.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/sim_object.h"
#include "sim/types.h"

namespace piranha {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(100, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsScheduledDuringExecutionRun)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] {
        ++fired;
        eq.scheduleIn(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 10u);
}

TEST(EventQueue, RunWithLimitStopsAndResumes)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(1000, [&] { ++fired; });
    EXPECT_FALSE(eq.run(500));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curTick(), 500u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ZeroDelaySelfScheduleMakesProgress)
{
    EventQueue eq;
    int count = 0;
    EventFn fn = [&]() {
        if (++count < 100)
            eq.scheduleIn(0, [&] {
                if (++count < 100)
                    eq.scheduleIn(1, [] {});
            });
    };
    eq.schedule(0, fn);
    eq.run();
    EXPECT_GE(count, 2);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

TEST(Clock, ConvertsCyclesToTicks)
{
    Clock c500(500.0);   // 2 ns period
    Clock c1000(1000.0); // 1 ns period
    Clock c1250(1250.0); // 0.8 ns period
    EXPECT_EQ(c500.cycles(1), 2000u);
    EXPECT_EQ(c1000.cycles(1), 1000u);
    EXPECT_EQ(c1250.cycles(1), 800u);
    EXPECT_EQ(c500.cycles(1000), 2000000u);
}

TEST(Clock, NoDriftOverManyCycles)
{
    Clock c(333.0); // awkward period
    // Converting from total cycle count must not accumulate error:
    // 333 MHz -> 1e6/333 ps; one million cycles ~ 3.003003e9 ps.
    Tick t = c.cycles(1000000);
    EXPECT_NEAR(static_cast<double>(t), 1e12 / 333.0, 1.0);
}

TEST(Types, LineHelpers)
{
    EXPECT_EQ(lineAlign(0x12345), 0x12340u);
    EXPECT_EQ(lineNum(0x12345), 0x12345u >> 6);
    EXPECT_EQ(nsToTicks(60), 60000u);
}

TEST(Pcg32, DeterministicForSameSeed)
{
    Pcg32 a(42, 7), b(42, 7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiffer)
{
    Pcg32 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Pcg32, BelowIsInRange)
{
    Pcg32 r(123);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
    EXPECT_EQ(r.below(0), 0u);
    EXPECT_EQ(r.below(1), 0u);
}

TEST(Pcg32, UniformCoversRange)
{
    Pcg32 r(9);
    double lo = 1.0, hi = 0.0, sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double u = r.uniform();
        lo = std::min(lo, u);
        hi = std::max(hi, u);
        sum += u;
    }
    EXPECT_LT(lo, 0.001);
    EXPECT_GT(hi, 0.999);
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

/** Pcg32::geometric as a chance() per trial: the oracle for the
 *  raw-draw loop that replaced it. */
std::uint32_t
geometricByChance(Pcg32 &r, double mean)
{
    if (mean <= 1.0)
        return 1;
    double p = 1.0 / mean;
    std::uint32_t n = 1;
    while (!r.chance(p) && n < 64 * mean)
        ++n;
    return n;
}

TEST(Pcg32, GeometricMatchesChanceLoop)
{
    struct Pin
    {
        double mean;
        std::uint64_t sum;   //!< of 20000 draws from Pcg32(77, 3)
        std::uint32_t after; //!< next() once they are drawn
    };
    const Pin pins[] = {
        {1.2, 24002, 750461385u},
        {3.5, 69731, 2793504055u},
        {40.0, 798770, 1961493770u},
        {300.0, 5895443, 4152266496u},
    };
    for (const Pin &pin : pins) {
        Pcg32 r(77, 3), oracle(77, 3);
        std::uint64_t sum = 0;
        for (int i = 0; i < 20000; ++i) {
            std::uint32_t n = r.geometric(pin.mean);
            ASSERT_EQ(n, geometricByChance(oracle, pin.mean))
                << "mean " << pin.mean << " draw " << i;
            sum += n;
        }
        std::uint32_t after = r.next();
        EXPECT_EQ(after, oracle.next()) << "mean " << pin.mean;
        EXPECT_EQ(sum, pin.sum) << "mean " << pin.mean;
        EXPECT_EQ(after, pin.after) << "mean " << pin.mean;
    }
}

TEST(Pcg32, GeometricAtMostOneDrawsNothing)
{
    Pcg32 r(5), ref(5);
    EXPECT_EQ(r.geometric(1.0), 1u);
    EXPECT_EQ(r.geometric(0.25), 1u);
    EXPECT_EQ(r.next(), ref.next());
}

TEST(SimObject, NameAndQueueAccess)
{
    EventQueue eq;
    class Dummy : public SimObject
    {
      public:
        using SimObject::SimObject;
    };
    Dummy d(eq, "node0.cpu1.dl1");
    EXPECT_EQ(d.name(), "node0.cpu1.dl1");
    EXPECT_EQ(&d.eventQueue(), &eq);
}

} // namespace
} // namespace piranha
