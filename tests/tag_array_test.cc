/**
 * @file
 * Unit tests for the set-associative tag array and the intra-chip
 * switch: geometry, replacement policies, the banked index shift
 * (paper §2.3 interleave), and ICS lane priority / FIFO ordering
 * (paper §2.2).
 */

#include <gtest/gtest.h>

#include "cache/tag_array.h"
#include "ics/intra_chip_switch.h"
#include "sim/event_queue.h"

namespace piranha {
namespace {

struct Line : TagLine
{
    int payload = 0;
};

TEST(TagArray, GeometryAndLookup)
{
    TagArray<Line> t(64 * 1024, 2, ReplPolicy::Lru);
    EXPECT_EQ(t.numSets(), 512u);
    EXPECT_EQ(t.find(0x1000), nullptr);
    Line &slot = t.victimFor(0x1000);
    t.install(slot, 0x1000);
    slot.payload = 7;
    ASSERT_NE(t.find(0x1000), nullptr);
    EXPECT_EQ(t.find(0x1000)->payload, 7);
    EXPECT_EQ(t.find(0x1040), nullptr); // different line
    // Same line, different byte offset.
    EXPECT_NE(t.find(0x1008), nullptr);
}

TEST(TagArray, LruEvictsLeastRecentlyUsed)
{
    TagArray<Line> t(2 * 2 * 64, 2, ReplPolicy::Lru); // 2 sets, 2-way
    Addr set_stride = 2 * 64;
    Addr a0 = 0, a1 = a0 + set_stride, a2 = a1 + set_stride;
    t.install(t.victimFor(a0), a0);
    t.install(t.victimFor(a1), a1);
    t.touch(*t.find(a0)); // a0 most recent
    Line &v = t.victimFor(a2);
    EXPECT_EQ(v.addr, a1);
}

TEST(TagArray, RoundRobinCyclesWays)
{
    TagArray<Line> t(4 * 64, 4, ReplPolicy::RoundRobin); // 1 set 4-way
    for (unsigned i = 0; i < 4; ++i)
        t.install(t.victimFor(i * 64), i * 64);
    // Full set: round-robin (least-recently-loaded) cycles in order.
    Line &v0 = t.victimFor(0x9000);
    EXPECT_EQ(v0.addr, 0u);
    t.install(v0, 0x9000);
    EXPECT_EQ(t.victimFor(0xA000).addr, 64u);
}

TEST(TagArray, IndexShiftSpreadsBankedLines)
{
    // Without the shift, lines interleaved to one bank (every 8th
    // line) would collapse into 1/8 of the sets.
    TagArray<Line> banked(128 * 1024, 8, ReplPolicy::RoundRobin, 3);
    std::set<std::size_t> sets;
    for (unsigned i = 0; i < 256; ++i)
        sets.insert(banked.setIndex(static_cast<Addr>(i) * 8 * 64));
    EXPECT_EQ(sets.size(), 256u);
}

TEST(TagArray, ValidCountTracksInstallsAndInvalidates)
{
    TagArray<Line> t(64 * 1024, 2, ReplPolicy::Lru);
    EXPECT_EQ(t.validCount(), 0u);
    for (unsigned i = 0; i < 10; ++i)
        t.install(t.victimFor(i * 64), i * 64);
    EXPECT_EQ(t.validCount(), 10u);
    t.invalidate(*t.find(0));
    EXPECT_EQ(t.validCount(), 9u);
}

TEST(TagArray, BadGeometryDies)
{
    EXPECT_DEATH((TagArray<Line>(1000, 3, ReplPolicy::Lru)),
                 "geometry");
}

// ---- ICS ----

struct Sink : IcsClient
{
    std::vector<IcsMsg> got;
    EventQueue *eq = nullptr;
    void
    icsDeliver(const IcsMsg &msg) override
    {
        got.push_back(msg);
    }
};

TEST(Ics, DeliversWithPipelineLatency)
{
    EventQueue eq;
    Clock clk(500.0);
    IntraChipSwitch ics(eq, "ics", ChipContext{}, 4, clk, 2);
    Sink sink;
    ics.connect(1, &sink);
    IcsMsg m;
    m.type = IcsMsgType::GetS;
    m.srcPort = 0;
    m.dstPort = 1;
    m.addr = 0x40;
    ics.send(m);
    eq.run();
    ASSERT_EQ(sink.got.size(), 1u);
    EXPECT_EQ(sink.got[0].addr, 0x40u);
    EXPECT_EQ(eq.curTick(), clk.cycles(2));
}

TEST(Ics, HighLaneBypassesLowLane)
{
    EventQueue eq;
    Clock clk(500.0);
    IntraChipSwitch ics(eq, "ics", ChipContext{}, 4, clk, 1);
    Sink sink;
    ics.connect(1, &sink);
    // Queue a burst of low-priority data transfers, then one
    // high-priority invalidation: arbitration happens on the next
    // edge, so the inval (high lane) must be delivered first even
    // though it was sent last.
    for (int i = 0; i < 4; ++i) {
        IcsMsg lo;
        lo.type = IcsMsgType::GetS; // low lane
        lo.srcPort = 0;
        lo.dstPort = 1;
        lo.hasData = true; // 9-cycle occupancy
        lo.reqId = static_cast<std::uint64_t>(i);
        ics.send(lo);
    }
    IcsMsg hi;
    hi.type = IcsMsgType::Inval; // high lane
    hi.srcPort = 2;
    hi.dstPort = 1;
    hi.reqId = 99;
    ics.send(hi);
    eq.run();
    ASSERT_EQ(sink.got.size(), 5u);
    EXPECT_EQ(sink.got[0].reqId, 99u);
    EXPECT_EQ(sink.got[1].reqId, 0u);
}

TEST(Ics, FifoWithinLane)
{
    EventQueue eq;
    Clock clk(500.0);
    IntraChipSwitch ics(eq, "ics", ChipContext{}, 4, clk, 1);
    Sink sink;
    ics.connect(2, &sink);
    for (int i = 0; i < 8; ++i) {
        IcsMsg m;
        m.type = IcsMsgType::FillS; // high lane
        m.srcPort = 0;
        m.dstPort = 2;
        m.reqId = static_cast<std::uint64_t>(i);
        ics.send(m);
    }
    eq.run();
    ASSERT_EQ(sink.got.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(sink.got[static_cast<size_t>(i)].reqId,
                  static_cast<std::uint64_t>(i));
}

TEST(Ics, DataTransfersOccupyLonger)
{
    // Back-to-back data transfers: each occupies header + 8 words.
    EventQueue eq;
    Clock clk(500.0);
    IntraChipSwitch ics(eq, "ics", ChipContext{}, 4, clk, 1);
    Sink sink;
    ics.connect(1, &sink);
    for (int i = 0; i < 3; ++i) {
        IcsMsg m;
        m.type = IcsMsgType::FillS;
        m.srcPort = 0;
        m.dstPort = 1;
        m.hasData = true;
        ics.send(m);
    }
    eq.run();
    EXPECT_EQ(sink.got.size(), 3u);
    // 3 transfers x 9 cycles occupancy (+1 pipe): > 27 cycles total.
    EXPECT_GE(eq.curTick(), clk.cycles(27));
    EXPECT_EQ(ics.statDataTransfers.value(), 3.0);
}

TEST(Ics, UnconnectedPortDies)
{
    EventQueue eq;
    Clock clk(500.0);
    IntraChipSwitch ics(eq, "ics", ChipContext{}, 4, clk, 1);
    IcsMsg m;
    m.srcPort = 0;
    m.dstPort = 3;
    EXPECT_DEATH(ics.send(m), "no client");
}

} // namespace
} // namespace piranha
