/**
 * @file
 * Store-buffer edge cases (paper §2.2: each Alpha core retires stores
 * into a per-CPU store buffer that drains through the dL1). The
 * forwarding path must honor partial overlaps, same-slot coalescing
 * must survive ownership migration mid-drain, and loads racing an
 * in-flight write-back of the same line must still be serviced with
 * current data.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "check/checker.h"
#include "check/trace.h"
#include "test_system.h"

namespace piranha {
namespace {

TEST(StoreBuffer, PartialOverlapForwardsByteExact)
{
    // An 8-byte store followed by a narrower overlapping store: loads
    // of every width must see the byte-merged result, both while the
    // stores sit in the buffer and after they drain.
    TestSystem sys(1, 1);
    Addr a = 0x2000000;
    sys.store(0, 0, a, 0x1122334455667788ull, 8);
    sys.store(0, 0, a + 2, 0xBBAA, 2); // bytes 2..3
    const std::uint64_t merged = 0x11223344BBAA7788ull;

    EXPECT_EQ(sys.load(0, 0, a, 8), merged);
    EXPECT_EQ(sys.load(0, 0, a, 2), merged & 0xFFFF);
    EXPECT_EQ(sys.load(0, 0, a + 2, 2), 0xBBAAull);
    EXPECT_EQ(sys.load(0, 0, a + 4, 4), merged >> 32);

    sys.settle(); // drain
    EXPECT_EQ(sys.load(0, 0, a, 8), merged);
}

TEST(StoreBuffer, SameSlotStoresDrainAcrossMigration)
{
    // A remote CPU issues back-to-back stores to one slot while the
    // home CPU keeps stealing the line, so the drain repeatedly loses
    // ownership mid-sequence. No store may be lost or reordered; the
    // trace checker audits the whole exchange.
    CoherenceTracer tracer(std::size_t(1) << 18);
    ChipParams params;
    params.tracer = &tracer;
    TestSystem sys(2, 1, params);
    Addr a = homedAt(sys, 0);
    for (unsigned off = 0; off < lineBytes; off += 8)
        tracer.init(lineAlign(a) + off, 8, 0);

    for (std::uint64_t round = 1; round <= 6; ++round) {
        // Same slot, increasing values, no settle in between.
        fire(sys, 1, 0, MemOp::Store, a, round * 0x10 + 1);
        fire(sys, 1, 0, MemOp::Store, a, round * 0x10 + 2);
        // Home steals the line (other slot) mid-drain.
        fire(sys, 0, 0, MemOp::Store, a + 8, round);
        sys.settle();
        EXPECT_EQ(sys.load(1, 0, a), round * 0x10 + 2) << round;
        EXPECT_EQ(sys.load(0, 0, a + 8), round) << round;
    }
    sys.settle();
    tracer.mark(sys.eq.curTick(), markerSettled);
    EXPECT_EQ(sys.load(0, 0, a), 0x62u);
    EXPECT_EQ(sys.load(1, 0, a + 8), 6u);

    ASSERT_EQ(tracer.dropped(), 0u);
    CheckReport rep = checkCoherence(tracer.events());
    EXPECT_TRUE(rep.ok()) << rep.summary(tracer.events());
}

TEST(StoreBuffer, LoadDuringInFlightWriteback)
{
    // Node 1 dirties a line, then a conflict walk pushes it out of L1
    // and L2 so a node-level write-back is in flight; without letting
    // the system settle, node 1 immediately loads the line again. The
    // no-NAK write-back buffer must service the refetch with the
    // dirty data, whatever phase the write-back is in.
    L1Params l1{};
    L2Params l2{};
    std::size_t l1_sets = l1.sizeBytes / (l1.assoc * lineBytes);
    std::size_t l2_sets = l2.bankBytes / (l2.assoc * lineBytes);
    Addr stride =
        static_cast<Addr>(std::max(l1_sets, l2_sets * 8)) * lineBytes *
        8;

    for (unsigned gap = 0; gap < 24; gap += 3) {
        TestSystem sys(2, 1);
        Addr a = homedAt(sys, 0);
        sys.store(1, 0, a, 0xD1D1D1D1ull);
        sys.settle();
        for (unsigned i = 1; i <= l2.assoc + 2; ++i)
            fire(sys, 1, 0, MemOp::Store, a + i * stride, i);
        // Step partway into the eviction/write-back, then reload.
        for (unsigned s = 0; s < gap * 40; ++s)
            if (!sys.eq.step())
                break;
        EXPECT_EQ(sys.load(1, 0, a), 0xD1D1D1D1ull) << "gap " << gap;
        sys.settle();
        EXPECT_EQ(sys.load(0, 0, a), 0xD1D1D1D1ull) << "gap " << gap;
    }
}

} // namespace
} // namespace piranha
