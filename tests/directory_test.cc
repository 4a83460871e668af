/**
 * @file
 * Tests for the 44-bit directory entry codec: limited-pointer and
 * coarse-vector representations, the switch at >4 remote sharers, and
 * pack/unpack round trips (paper §2.5.2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "mem/directory.h"
#include "sim/rng.h"

namespace piranha {
namespace {

TEST(DirEntry, StartsUncached)
{
    DirEntry e(64);
    EXPECT_TRUE(e.empty());
    EXPECT_EQ(e.state(), DirState::Uncached);
    EXPECT_EQ(e.sharerCount(), 0u);
    EXPECT_FALSE(e.mayBeSharer(3));
}

TEST(DirEntry, LimitedPointerUpToFourSharers)
{
    DirEntry e(1024);
    e.addSharer(10);
    e.addSharer(999);
    e.addSharer(0);
    e.addSharer(512);
    EXPECT_EQ(e.state(), DirState::SharedPtr);
    EXPECT_EQ(e.sharerCount(), 4u);
    EXPECT_TRUE(e.mayBeSharer(999));
    EXPECT_FALSE(e.mayBeSharer(11));
}

TEST(DirEntry, SwitchesToCoarseVectorPastFour)
{
    // "Given a 1K node system, we switch to coarse vector
    //  representation past 4 remote sharing nodes."
    DirEntry e(1024);
    for (NodeId n : {5, 100, 200, 300})
        e.addSharer(n);
    EXPECT_EQ(e.state(), DirState::SharedPtr);
    e.addSharer(400);
    EXPECT_EQ(e.state(), DirState::SharedCv);
    for (NodeId n : {5, 100, 200, 300, 400})
        EXPECT_TRUE(e.mayBeSharer(n));
}

TEST(DirEntry, CoarseVectorIsConservative)
{
    DirEntry e(1024);
    for (NodeId n : {0, 100, 200, 300, 400})
        e.addSharer(n);
    ASSERT_EQ(e.state(), DirState::SharedCv);
    // Node in the same group as node 0 may be reported as sharer
    // (over-invalidation is allowed; missing a sharer is not).
    unsigned gs = DirEntry::groupSize(1024);
    EXPECT_TRUE(e.mayBeSharer(static_cast<NodeId>(gs - 1)));
    // All true sharers must be covered by sharerList().
    std::vector<NodeId> list;
    e.sharerList(list);
    for (NodeId n : {0, 100, 200, 300, 400}) {
        EXPECT_NE(std::find(list.begin(), list.end(), n), list.end())
            << "missing true sharer " << n;
    }
}

TEST(DirEntry, ExclusiveOwner)
{
    DirEntry e(16);
    e.setExclusive(7);
    EXPECT_EQ(e.state(), DirState::Exclusive);
    EXPECT_EQ(e.owner(), 7);
    EXPECT_TRUE(e.mayBeSharer(7));
    EXPECT_FALSE(e.mayBeSharer(6));
    // Read by another node demotes owner to sharer alongside it.
    e.addSharer(3);
    EXPECT_EQ(e.state(), DirState::SharedPtr);
    EXPECT_TRUE(e.mayBeSharer(7));
    EXPECT_TRUE(e.mayBeSharer(3));
}

TEST(DirEntry, RemoveSharerAndCollapse)
{
    DirEntry e(16);
    e.addSharer(1);
    e.addSharer(2);
    e.removeSharer(1);
    EXPECT_FALSE(e.mayBeSharer(1));
    EXPECT_TRUE(e.mayBeSharer(2));
    e.removeSharer(2);
    EXPECT_TRUE(e.empty());
}

TEST(DirEntry, RemoveOwnerClearsExclusive)
{
    DirEntry e(16);
    e.setExclusive(5);
    e.removeSharer(5);
    EXPECT_TRUE(e.empty());
    // Removing a non-owner does nothing.
    e.setExclusive(5);
    e.removeSharer(6);
    EXPECT_EQ(e.owner(), 5);
}

// The pointer list keeps insertion order: pack() lays the pointers
// out in that order, owner() reads slot 0, and CMI planning starts
// from sharerList(). These pin the exact bits for three sequences.

/** Packed limited-pointer entry: state, count - 1, then the slots. */
std::uint64_t
packedPtrs(DirState st, std::initializer_list<std::uint64_t> ptrs)
{
    std::uint64_t bits = std::uint64_t(st) << DirEntry::sharerBits |
                         std::uint64_t(ptrs.size() - 1) << 40;
    unsigned i = 0;
    for (std::uint64_t p : ptrs)
        bits |= p << (DirEntry::ptrBits * i++);
    return bits;
}

TEST(DirEntry, RemoveKeepsPointerOrder)
{
    DirEntry e(16);
    e.addSharer(1);
    e.addSharer(2);
    e.addSharer(3);
    e.removeSharer(2);
    EXPECT_EQ(e.state(), DirState::SharedPtr);
    EXPECT_EQ(e.pack(), packedPtrs(DirState::SharedPtr, {1, 3}));
    EXPECT_EQ(e.pack(), 0x50000000c01u);
    std::vector<NodeId> list;
    e.sharerList(list);
    EXPECT_EQ(list, (std::vector<NodeId>{1, 3}));
    EXPECT_EQ(e.sharerCount(), 2u);
    // A later sharer files after the survivors, and removing the
    // first pointer shifts the rest down in order.
    e.addSharer(2);
    EXPECT_EQ(e.pack(), packedPtrs(DirState::SharedPtr, {1, 3, 2}));
    e.removeSharer(1);
    EXPECT_EQ(e.pack(), packedPtrs(DirState::SharedPtr, {3, 2}));
    e.sharerList(list);
    EXPECT_EQ(list, (std::vector<NodeId>{3, 2}));
}

TEST(DirEntry, SetExclusiveAfterSharersPinsOwner)
{
    DirEntry e(16);
    e.addSharer(4);
    e.addSharer(9);
    e.setExclusive(6);
    EXPECT_EQ(e.pack(), packedPtrs(DirState::Exclusive, {6}));
    EXPECT_EQ(e.pack(), 0xc0000000006u);
    EXPECT_EQ(e.owner(), 6);
    EXPECT_EQ(DirEntry::unpack(e.pack(), 16).owner(), 6);
    EXPECT_EQ(e.sharerCount(), 1u);
    // A reader demotes the owner, which stays in slot 0.
    e.addSharer(2);
    EXPECT_EQ(e.pack(), packedPtrs(DirState::SharedPtr, {6, 2}));
    e.setExclusive(2);
    EXPECT_EQ(e.owner(), 2);
    EXPECT_EQ(e.pack(), packedPtrs(DirState::Exclusive, {2}));
}

// A flipped directory bit can leave a pointer naming no node (seeds 11
// and 12 of the two-chip campaign: pointers 512 and 128 with 2 nodes).
// The decode drops it and says which one, so no message is ever
// routed there.
TEST(DirEntry, OutOfRangePointerIsDroppedAndReported)
{
    unsigned bad = 7;
    DirEntry e = DirEntry::unpack(
        packedPtrs(DirState::SharedPtr, {1, 512, 0}), 2, &bad);
    EXPECT_EQ(bad, 512u);
    std::vector<NodeId> list;
    e.sharerList(list);
    EXPECT_EQ(list, (std::vector<NodeId>{1, 0}));
    EXPECT_FALSE(e.mayBeSharer(512));

    // A lost exclusive owner leaves no remote copy on record.
    e = DirEntry::unpack(packedPtrs(DirState::Exclusive, {128}), 2, &bad);
    EXPECT_EQ(bad, 128u);
    EXPECT_TRUE(e.empty());
    EXPECT_EQ(e.pack(), 0u);

    // In range: nothing dropped, and bad is cleared.
    e = DirEntry::unpack(packedPtrs(DirState::Exclusive, {1}), 2, &bad);
    EXPECT_EQ(bad, 0u);
    EXPECT_EQ(e.owner(), 1);
}

TEST(DirEntry, FifthSharerPacksCoarseVector)
{
    // 64 nodes: two nodes per coarse-vector bit.
    DirEntry e(64);
    for (NodeId n : {1, 2, 3, 4})
        e.addSharer(n);
    EXPECT_EQ(e.pack(), packedPtrs(DirState::SharedPtr, {1, 2, 3, 4}));
    EXPECT_EQ(e.pack(), 0x70100300801u);
    e.addSharer(9);
    EXPECT_EQ(e.state(), DirState::SharedCv);
    // Groups {0,1}, {2,3}, {4,5} and {8,9}: bits 0, 1, 2 and 4.
    EXPECT_EQ(e.pack(), std::uint64_t(DirState::SharedCv)
                                << DirEntry::sharerBits |
                            0x17u);
    std::vector<NodeId> list;
    e.sharerList(list);
    EXPECT_EQ(list, (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 8, 9}));
    EXPECT_EQ(e.sharerCount(), 8u);
}

TEST(DirEntry, SharerCountMatchesSharerList)
{
    Pcg32 rng(81);
    std::vector<NodeId> list;
    for (int trial = 0; trial < 500; ++trial) {
        // Node counts that are and are not multiples of the group.
        unsigned nodes = 2 + rng.below(1023);
        DirEntry e(nodes);
        unsigned ops = rng.below(12);
        for (unsigned i = 0; i < ops; ++i)
            e.addSharer(static_cast<NodeId>(rng.below(nodes)));
        if (rng.below(4) == 0)
            e.setExclusive(static_cast<NodeId>(rng.below(nodes)));
        e.sharerList(list);
        EXPECT_EQ(e.sharerCount(), list.size()) << "nodes=" << nodes;
    }
}

TEST(DirEntry, PackFitsIn44Bits)
{
    Pcg32 rng(77);
    for (int i = 0; i < 2000; ++i) {
        DirEntry e(1024);
        unsigned n = 1 + rng.below(10);
        for (unsigned j = 0; j < n; ++j)
            e.addSharer(static_cast<NodeId>(rng.below(1024)));
        EXPECT_EQ(e.pack() >> DirEntry::entryBits, 0u);
    }
}

TEST(DirEntry, PackUnpackRoundTripPointer)
{
    Pcg32 rng(78);
    for (int i = 0; i < 2000; ++i) {
        DirEntry e(1024);
        unsigned n = 1 + rng.below(4);
        for (unsigned j = 0; j < n; ++j)
            e.addSharer(static_cast<NodeId>(rng.below(1024)));
        DirEntry back = DirEntry::unpack(e.pack(), 1024);
        EXPECT_TRUE(back == e);
    }
}

TEST(DirEntry, PackUnpackRoundTripCoarseAndExclusive)
{
    Pcg32 rng(79);
    for (int i = 0; i < 2000; ++i) {
        DirEntry e(1024);
        unsigned n = 5 + rng.below(30);
        for (unsigned j = 0; j < n; ++j)
            e.addSharer(static_cast<NodeId>(rng.below(1024)));
        EXPECT_EQ(e.state(), DirState::SharedCv);
        EXPECT_TRUE(DirEntry::unpack(e.pack(), 1024) == e);

        DirEntry x(1024);
        x.setExclusive(static_cast<NodeId>(rng.below(1024)));
        EXPECT_TRUE(DirEntry::unpack(x.pack(), 1024) == x);
    }
    DirEntry empty(1024);
    EXPECT_TRUE(DirEntry::unpack(empty.pack(), 1024) == empty);
}

TEST(DirEntry, PropertyNeverMissesTrueSharer)
{
    // Whatever sequence of adds happens, every added-and-not-removed
    // node must be reported by mayBeSharer (the protocol relies on
    // the directory being conservative).
    Pcg32 rng(80);
    for (int trial = 0; trial < 300; ++trial) {
        unsigned nodes = 8u << rng.below(8); // 8..1024
        DirEntry e(nodes);
        std::vector<NodeId> added;
        unsigned ops = 1 + rng.below(40);
        for (unsigned i = 0; i < ops; ++i) {
            NodeId n = static_cast<NodeId>(rng.below(nodes));
            e.addSharer(n);
            added.push_back(n);
        }
        for (NodeId n : added)
            EXPECT_TRUE(e.mayBeSharer(n))
                << "nodes=" << nodes << " n=" << n;
    }
}

TEST(DirEntry, GroupSizeMatchesPaperScale)
{
    // 1K nodes / 42 bits -> 25 nodes per coarse-vector bit.
    EXPECT_EQ(DirEntry::groupSize(1024), 25u);
    EXPECT_EQ(DirEntry::groupSize(42), 1u);
    EXPECT_EQ(DirEntry::groupSize(2), 1u);
}

} // namespace
} // namespace piranha
