/**
 * @file
 * RDRAM channel and memory-controller tests (paper §2.4): open-page
 * timing (60 ns random / 40 ns open-page hit), the keep-open window,
 * row-buffer capacity, read-after-write ordering and channel
 * serialization; and the backing store's contract: reads touch lines
 * without storing them, line() references are stable, and
 * forEachLine follows the line index's slot order.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/mem_ctrl.h"
#include "sim/event_queue.h"
#include "sim/line_table.h"
#include "sim/rng.h"

namespace piranha {
namespace {

TEST(Rdram, RandomThenOpenPageLatency)
{
    RdramChannel ch;
    Tick first = ch.access(0x1000, 0);
    EXPECT_EQ(first, nsToTicks(60));
    // Same 512-byte page shortly after: open-page hit.
    Tick second = ch.access(0x1040, nsToTicks(100));
    EXPECT_EQ(second, nsToTicks(40));
    // Different page: activation again.
    Tick third = ch.access(0x9000, nsToTicks(200));
    EXPECT_EQ(third, nsToTicks(60));
}

TEST(Rdram, KeepOpenWindowExpires)
{
    RdramChannel ch; // keepOpenNs = 1000
    ch.access(0x1000, 0);
    EXPECT_EQ(ch.access(0x1000, nsToTicks(900)), nsToTicks(40));
    EXPECT_EQ(ch.access(0x1000, nsToTicks(5000)), nsToTicks(60));
}

TEST(Rdram, PageHitStatistics)
{
    RdramChannel ch;
    for (int i = 0; i < 8; ++i)
        ch.access(0x2000 + i * 64, static_cast<Tick>(i) * 100);
    EXPECT_EQ(ch.statPageMisses.value(), 1.0);
    EXPECT_EQ(ch.statPageHits.value(), 7.0);
}

TEST(Rdram, RowBufferCapacityBounded)
{
    RdramParams p;
    p.maxOpenPages = 4;
    p.keepOpenNs = 1e9; // never expire by time
    RdramChannel ch(p);
    unsigned page_span = p.pageShift + p.channelInterleaveLog2;
    for (unsigned i = 0; i < 64; ++i)
        ch.access(static_cast<Addr>(i) << page_span, i);
    // All distinct pages: no crash, all misses.
    EXPECT_EQ(ch.statPageMisses.value(), 64.0);
}

TEST(MemCtrl, ReadReturnsDataAndDirectory)
{
    EventQueue eq;
    BackingStore store;
    store.poke64(0x4000, 0x1234);
    store.line(0x4000).dirBits = 0x5555;
    MemCtrl mc(eq, "mc", ChipContext{}, store);
    bool done = false;
    mc.readLine(0x4000, [&](const LineData &d, std::uint64_t dir) {
        EXPECT_EQ(d.read(0, 8), 0x1234u);
        EXPECT_EQ(dir, 0x5555u);
        done = true;
    });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_GE(eq.curTick(), nsToTicks(60));
}

TEST(MemCtrl, PostedWriteVisibleToLaterRead)
{
    EventQueue eq;
    BackingStore store;
    MemCtrl mc(eq, "mc", ChipContext{}, store);
    LineData d;
    d.write(8, 8, 0xabc);
    std::uint64_t dir = 7;
    mc.writeLine(0x8000, &d, &dir);
    bool done = false;
    mc.readLine(0x8000, [&](const LineData &rd, std::uint64_t rdir) {
        EXPECT_EQ(rd.read(8, 8), 0xabcu);
        EXPECT_EQ(rdir, 7u);
        done = true;
    });
    eq.run();
    EXPECT_TRUE(done);
}

TEST(MemCtrl, PartialWritePreservesOtherFields)
{
    EventQueue eq;
    BackingStore store;
    store.poke64(0xC000, 0x77);
    store.line(0xC000).dirBits = 9;
    MemCtrl mc(eq, "mc", ChipContext{}, store);
    std::uint64_t dir = 42;
    mc.writeLine(0xC000, nullptr, &dir); // directory-only update
    eq.run();
    EXPECT_EQ(store.peek64(0xC000), 0x77u);
    EXPECT_EQ(store.peek(0xC000).dirBits, 42u);
}

TEST(MemCtrl, ChannelSerializesRequests)
{
    EventQueue eq;
    BackingStore store;
    MemCtrl mc(eq, "mc", ChipContext{}, store);
    std::vector<Tick> completions;
    for (int i = 0; i < 4; ++i) {
        mc.readLine(0x10000 + i * 0x4000,
                    [&](const LineData &, std::uint64_t) {
                        completions.push_back(eq.curTick());
                    });
    }
    eq.run();
    ASSERT_EQ(completions.size(), 4u);
    // Transfers occupy the channel for 40 ns each: completions are
    // spread, not simultaneous.
    for (size_t i = 1; i < completions.size(); ++i)
        EXPECT_GE(completions[i] - completions[i - 1], nsToTicks(40));
}

TEST(BackingStoreTest, SparseMaterialization)
{
    BackingStore s;
    EXPECT_EQ(s.touchedLines(), 0u);
    EXPECT_EQ(s.peek64(0x123456780), 0u); // peek does not materialize
    EXPECT_EQ(s.touchedLines(), 0u);
    s.poke64(0x123456780, 5);
    EXPECT_EQ(s.touchedLines(), 1u);
    EXPECT_EQ(s.peek64(0x123456780), 5u);
}

TEST(BackingStoreTest, ReadOnlyScanStoresNoLines)
{
    // The DSS scan pattern: every line is read, none written. Each is
    // touched (counted, visited by forEachLine) but holds no contents.
    constexpr unsigned kLines = 5000;
    BackingStore s;
    for (unsigned i = 0; i < kLines; ++i) {
        const BackingStore::Line &l = s.read(0x40000000 + i * lineBytes);
        EXPECT_EQ(l.data, LineData{}) << "line " << i;
        EXPECT_EQ(l.dirBits, 0u) << "line " << i;
    }
    EXPECT_EQ(s.touchedLines(), kLines);
    EXPECT_EQ(s.storedLines(), 0u);
    EXPECT_EQ(s.peek64(0x40000000 + 17 * lineBytes + 8), 0u);
    std::size_t visited = 0;
    s.forEachLine([&](Addr) { ++visited; });
    EXPECT_EQ(visited, kLines);
}

TEST(BackingStoreTest, WriteAfterReadReadsBackThroughEveryAccessor)
{
    const Addr a = 0x2000c0;
    BackingStore s;
    EXPECT_EQ(s.read(a).data.read(8, 8), 0u);
    BackingStore::Line &w = s.line(a);
    w.data.write(8, 8, 0xfeedface);
    w.dirBits = 0x2a;
    EXPECT_EQ(s.touchedLines(), 1u);
    EXPECT_EQ(s.storedLines(), 1u);

    EXPECT_EQ(s.read(a).data.read(8, 8), 0xfeedfaceu);
    EXPECT_EQ(s.read(a).dirBits, 0x2au);
    EXPECT_EQ(&s.line(a), &w);
    EXPECT_EQ(s.peek(a).data, w.data);
    EXPECT_EQ(s.peek(a).dirBits, 0x2au);
    EXPECT_EQ(s.peek64(a + 8), 0xfeedfaceu);
    EXPECT_EQ(s.storedLines(), 1u);
}

TEST(BackingStoreTest, LineReferenceSurvivesLaterMaterializations)
{
    BackingStore s;
    BackingStore::Line &held = s.line(0x1000);
    held.data.write(0, 8, 0x0123456789abcdef);
    held.dirBits = 0x5a5a;
    // Many more lines: the index rehashes repeatedly and the slab
    // grows by hundreds of chunks.
    for (unsigned i = 0; i < 10000; ++i) {
        BackingStore::Line &l = s.line(0x100000 + i * lineBytes);
        l.data.write(0, 8, i);
        l.dirBits = i;
    }
    EXPECT_EQ(s.storedLines(), 10001u);
    EXPECT_EQ(&s.line(0x1000), &held);
    EXPECT_EQ(held.data.read(0, 8), 0x0123456789abcdefu);
    EXPECT_EQ(held.dirBits, 0x5a5au);
    EXPECT_EQ(s.peek64(0x100000 + 4321 * lineBytes), 4321u);
}

TEST(BackingStoreTest, ForEachLineFollowsIndexSlotOrder)
{
    // Fault-site selection walks forEachLine in order, so the order
    // must be exactly that of a LineTable fed the same line numbers
    // through operator[] — reads included, peeks excluded.
    BackingStore s;
    LineTable<int> ref;
    Pcg32 rng(7);
    for (int step = 0; step < 20000; ++step) {
        Addr ln = rng.below(6000);
        Addr a = ln * lineBytes + rng.below(8) * 8;
        switch (rng.below(4)) {
          case 0:
            s.read(a);
            ref[ln];
            break;
          case 1:
            s.poke64(a, step);
            ref[ln];
            break;
          case 2:
            s.line(a).dirBits = static_cast<std::uint64_t>(step);
            ref[ln];
            break;
          default:
            s.peek(a);
            break;
        }
    }
    std::vector<Addr> got;
    s.forEachLine([&](Addr a) { got.push_back(a); });
    std::vector<Addr> want;
    ref.forEach([&](Addr ln, int) { want.push_back(ln * lineBytes); });
    EXPECT_EQ(s.touchedLines(), ref.size());
    EXPECT_LT(s.storedLines(), s.touchedLines());
    EXPECT_EQ(got, want);
}

TEST(MemCtrl, ReadOfUnwrittenLineStoresNothing)
{
    EventQueue eq;
    BackingStore store;
    MemCtrl mc(eq, "mc", ChipContext{}, store);
    bool done = false;
    mc.readLine(0x8040, [&](const LineData &d, std::uint64_t dir) {
        EXPECT_EQ(d, LineData{});
        EXPECT_EQ(dir, 0u);
        done = true;
    });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(store.touchedLines(), 1u);
    EXPECT_EQ(store.storedLines(), 0u);
}

} // namespace
} // namespace piranha
