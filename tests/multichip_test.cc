/**
 * @file
 * Multi-chip (NUMA) integration tests: the microcoded home/remote
 * engines, the inter-node directory protocol, CMI invalidations,
 * write-back races and 3-hop transactions (paper §2.5, §2.6).
 */

#include <gtest/gtest.h>

#include "test_system.h"

namespace piranha {
namespace {

TEST(MultiChip, RemoteLoadFromHomeMemory)
{
    TestSystem sys(2, 2);
    Addr a = homedAt(sys, 0);
    sys.chips[0]->memory().poke64(a, 0xabcdef);
    FillSource src;
    EXPECT_EQ(sys.load(1, 0, a, 8, &src), 0xabcdefu);
    EXPECT_EQ(src, FillSource::MemRemote);
    // Clean-exclusive optimization: sole sharer gets an exclusive
    // copy.
    sys.settle();
    EXPECT_EQ(sys.chips[1]->dl1(0).lineState(a), L1State::E);
}

TEST(MultiChip, RemoteStoreVisibleAtHome)
{
    TestSystem sys(2, 2);
    Addr a = homedAt(sys, 0);
    sys.store(1, 0, a, 0x77);
    sys.settle();
    FillSource src;
    EXPECT_EQ(sys.load(0, 0, a, 8, &src), 0x77u);
    // The home's read was serviced by the remote dirty owner (3-hop
    // transaction with reply forwarding).
    EXPECT_EQ(src, FillSource::RemoteDirty);
}

TEST(MultiChip, ThirdNodeReadsRemoteDirty)
{
    TestSystem sys(3, 1);
    Addr a = homedAt(sys, 0);
    sys.store(1, 0, a, 0x1234);
    sys.settle();
    FillSource src;
    EXPECT_EQ(sys.load(2, 0, a, 8, &src), 0x1234u);
    EXPECT_EQ(src, FillSource::RemoteDirty);
    sys.settle();
    // ShareWb made home memory current.
    EXPECT_EQ(sys.chips[0]->memory().peek64(a), 0x1234u);
}

TEST(MultiChip, WriteInvalidatesRemoteSharersViaCmi)
{
    TestSystem sys(4, 1);
    Addr a = homedAt(sys, 0);
    sys.chips[0]->memory().poke64(a, 9);
    for (unsigned n = 0; n < 4; ++n)
        EXPECT_EQ(sys.load(n, 0, a), 9u);
    sys.settle();
    sys.store(3, 0, a, 10);
    sys.settle();
    for (unsigned n = 0; n < 3; ++n)
        EXPECT_EQ(sys.load(n, 0, a), 10u) << "node " << n;
}

TEST(MultiChip, UpgradeFromRemoteSharer)
{
    TestSystem sys(2, 1);
    Addr a = homedAt(sys, 0);
    sys.chips[0]->memory().poke64(a, 1);
    EXPECT_EQ(sys.load(0, 0, a), 1u);
    EXPECT_EQ(sys.load(1, 0, a), 1u);
    sys.settle();
    // Node 1 upgrades its shared copy.
    sys.store(1, 0, a, 2);
    sys.settle();
    EXPECT_EQ(sys.load(0, 0, a), 2u);
}

TEST(MultiChip, OwnershipMigratesAcrossNodes)
{
    TestSystem sys(3, 1);
    Addr a = homedAt(sys, 0);
    for (std::uint64_t i = 0; i < 12; ++i) {
        unsigned writer = i % 3;
        sys.store(writer, 0, a, 100 + i);
        sys.settle();
        unsigned reader = (writer + 1) % 3;
        EXPECT_EQ(sys.load(reader, 0, a), 100 + i) << "iter " << i;
        sys.settle();
    }
}

TEST(MultiChip, NodeEvictionWritesBackToHome)
{
    // Force node 1's caches to evict dirty lines homed at node 0:
    // L1 (2-way) -> L2 (victim) -> L2 eviction -> Wb to home.
    TestSystem sys(2, 1);
    L1Params l1{};
    std::size_t l1_sets = l1.sizeBytes / (l1.assoc * lineBytes);
    L2Params l2{};
    std::size_t l2_sets = l2.bankBytes / (l2.assoc * lineBytes);
    // Lines in the same L1 set, same bank, same L2 set, all homed at
    // node 0 (page-interleave aware: keep within one page per line by
    // choosing stride that is a multiple of numNodes pages).
    Addr stride = static_cast<Addr>(
        std::max(l1_sets, l2_sets) * 8 * lineBytes);
    stride *= 2; // keep home == node 0 for every line (2 nodes)
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < l1.assoc + l2.assoc + 4; ++i) {
        Addr a = 0x8000000 + i * stride;
        if (sys.amap.home(a) != 0)
            a += 1ULL << sys.amap.pageShift;
        ASSERT_EQ(sys.amap.home(a), 0);
        addrs.push_back(a);
        sys.store(1, 0, a, 0x5000 + i);
        sys.settle();
    }
    sys.settle();
    // Everything must still be readable at the home with the stored
    // values, wherever each line ended up.
    for (unsigned i = 0; i < addrs.size(); ++i)
        EXPECT_EQ(sys.load(0, 0, addrs[i]), 0x5000u + i) << i;
}

TEST(MultiChip, HomeAndRemoteMixOnSameLine)
{
    TestSystem sys(2, 2);
    Addr a = homedAt(sys, 1); // homed at node 1
    sys.store(0, 1, a, 0xaa); // remote store
    sys.settle();
    sys.store(1, 0, a, 0xbb); // home store (FwdX to node 0)
    sys.settle();
    EXPECT_EQ(sys.load(0, 0, a), 0xbbu);
    sys.settle();
    sys.store(0, 0, a, 0xcc);
    sys.settle();
    EXPECT_EQ(sys.load(1, 1, a), 0xccu);
}

TEST(MultiChip, DistinctSlotsOfALineFromDifferentNodes)
{
    TestSystem sys(4, 1);
    Addr a = homedAt(sys, 2);
    for (unsigned n = 0; n < 4; ++n) {
        sys.store(n, 0, a + n * 8, 0x9900 + n);
        sys.settle();
    }
    for (unsigned n = 0; n < 4; ++n)
        EXPECT_EQ(sys.load((n + 1) % 4, 0, a + n * 8), 0x9900u + n);
}

TEST(MultiChip, EngineMicrocodeWithinBudget)
{
    // "The current protocol uses about 500 microcode instructions
    //  per engine" — ours must at least fit the 1024-word memory.
    TestSystem sys(2, 1);
    EXPECT_LE(sys.chips[0]->homeEngine().program().mem.size(), 1024u);
    EXPECT_LE(sys.chips[0]->remoteEngine().program().mem.size(), 1024u);
    EXPECT_GT(sys.chips[0]->homeEngine().program().instructionCount(),
              20u);
}

TEST(MultiChip, DiagnosticDumpNamesKinds)
{
    // Stop a remote read while the home holds the line for its engine
    // and the requester's engine waits for the reply: the dump names
    // each transaction kind, engine wait and local op, so it keeps its
    // meaning when an enum is renumbered.
    TestSystem sys(2, 1);
    bool done = false;
    fire(sys, 1, 0, MemOp::Load, homedAt(sys, 0), 0, &done);
    const ProtocolEngine &he = sys.chips[0]->homeEngine();
    while (he.statInstrs.value() < 3 && sys.eq.step()) {
    }
    ASSERT_FALSE(done);
    std::string dump = sys.diagnosticDump("mid-flight");
    for (const char *kind :
         {"txn=L1Engine", "peTxn=None", "peTxn=PeHeld", "wait=Net",
          "origLocalOp=ReqS", "origLocalOp=None"})
        EXPECT_NE(dump.find(kind), std::string::npos) << kind << "\n"
                                                      << dump;
    sys.settle();
    EXPECT_TRUE(done);
}

TEST(MultiChip, PacketEncodings)
{
    NetPacket p;
    p.type = NetMsgType::ReqS;
    EXPECT_EQ(p.icCycles(), 2u); // short packet
    p.hasData = true;
    EXPECT_EQ(p.icCycles(), 10u); // long packet
    EXPECT_EQ(netLaneFor(NetMsgType::ReqS), VirtualLane::L);
    EXPECT_EQ(netLaneFor(NetMsgType::Wb), VirtualLane::H);
    EXPECT_EQ(netLaneFor(NetMsgType::FwdX), VirtualLane::H);
}

} // namespace
} // namespace piranha
