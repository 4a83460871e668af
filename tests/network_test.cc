/**
 * @file
 * System interconnect tests (paper §2.6): routing over different
 * topologies, packet occupancies, delivery under load, the
 * hot-potato behavior, and the fabric's canonical arrival order.
 */

#include <gtest/gtest.h>

#include <map>

#include "noc/network.h"
#include "sim/event_queue.h"

namespace piranha {
namespace {

struct Harness
{
    EventQueue eq;
    Network net{eq, "net"};
    std::map<NodeId, std::vector<NetPacket>> got;

    void
    nodes(unsigned n, unsigned channels = 4)
    {
        for (unsigned i = 0; i < n; ++i) {
            NodeId id = static_cast<NodeId>(i);
            net.addNode(id,
                        [this, id](const NetPacket &p) {
                            got[id].push_back(p);
                        },
                        channels);
        }
    }

    NetPacket
    pkt(NodeId src, NodeId dst, std::uint64_t id)
    {
        NetPacket p;
        p.type = NetMsgType::ReqS;
        p.addr = 0x1000;
        p.src = src;
        p.dst = dst;
        p.reqId = id;
        return p;
    }
};

TEST(Network, DeliversAcrossFullyConnected)
{
    Harness h;
    h.nodes(4);
    Network::buildFullyConnected(h.net);
    for (unsigned d = 1; d < 4; ++d)
        h.net.inject(h.pkt(0, static_cast<NodeId>(d), d));
    h.eq.run();
    for (unsigned d = 1; d < 4; ++d) {
        ASSERT_EQ(h.got[static_cast<NodeId>(d)].size(), 1u);
        EXPECT_EQ(h.got[static_cast<NodeId>(d)][0].reqId, d);
    }
    h.net.mergeShardedStats();
    EXPECT_EQ(h.net.statHops.value(), 3.0); // direct links
}

TEST(Network, RingRoutesMultiHop)
{
    Harness h;
    h.nodes(6, 2); // ring uses 2 channels per node
    Network::buildRing(h.net);
    h.net.inject(h.pkt(0, 3, 7)); // 3 hops either way
    h.eq.run();
    ASSERT_EQ(h.got[3].size(), 1u);
    h.net.mergeShardedStats();
    EXPECT_EQ(h.net.statHops.value(), 3.0);
}

TEST(Network, NoLossNoDuplicationUnderLoad)
{
    Harness h;
    h.nodes(4);
    Network::buildFullyConnected(h.net);
    const unsigned n = 500;
    for (unsigned i = 0; i < n; ++i) {
        NetPacket p = h.pkt(static_cast<NodeId>(i % 4),
                            static_cast<NodeId>((i + 1 + i / 4) % 4),
                            i);
        if (p.src == p.dst)
            p.dst = static_cast<NodeId>((p.dst + 1) % 4);
        p.hasData = (i % 3) == 0; // mix of short and long packets
        h.net.inject(p);
    }
    h.eq.run();
    std::size_t total = 0;
    std::map<std::uint64_t, int> seen;
    for (auto &[id, v] : h.got) {
        total += v.size();
        for (auto &p : v)
            seen[p.reqId]++;
    }
    EXPECT_EQ(total, n);
    for (auto &[id, count] : seen)
        EXPECT_EQ(count, 1) << "packet " << id;
}

TEST(Network, PacketOccupanciesMatchPaper)
{
    // Short packets: 2 interconnect cycles; long: 10 (§2.6.1).
    NetPacket s;
    EXPECT_EQ(s.icCycles(), 2u);
    s.hasData = true;
    EXPECT_EQ(s.icCycles(), 10u);
}

TEST(Network, ChannelLimitEnforced)
{
    Harness h;
    h.nodes(6, 4);
    // A 6-node full crossbar needs 5 channels per node: must refuse.
    EXPECT_DEATH(Network::buildFullyConnected(h.net), "channels");
}

TEST(Network, SameTickArrivalsDeliverInCanonicalOrder)
{
    // Nodes 2 and 1 both send to node 0 at tick 0, in that order.
    // Each packet reaches node 0 after OQ (2 ns) + a short packet's
    // occupancy (1 ns) + the link (10 ns), and the IQ adds 4 ns, so
    // both are delivered at 17 ns. Same-tick arrivals are handed over
    // in (send tick, source, sequence) order, not injection order:
    // node 1's packet first.
    Harness h;
    std::vector<std::pair<Tick, NetPacket>> got; // (delivery tick, packet)
    for (NodeId id = 0; id < 3; ++id)
        h.net.addNode(id, [&](const NetPacket &p) {
            got.emplace_back(h.eq.curTick(), p);
        });
    Network::buildFullyConnected(h.net);
    h.net.inject(h.pkt(2, 0, 20));
    h.net.inject(h.pkt(1, 0, 10));
    h.eq.run();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].first, 17'000u);
    EXPECT_EQ(got[0].second.src, 1);
    EXPECT_EQ(got[0].second.reqId, 10u);
    EXPECT_EQ(got[1].first, 17'000u);
    EXPECT_EQ(got[1].second.src, 2);
    EXPECT_EQ(got[1].second.reqId, 20u);
}

TEST(Network, NodeIdsMustBeDense)
{
    // Per-node state is indexed by NodeId, so ids are handed out in
    // order: skipping one is a wiring bug.
    Harness h;
    h.nodes(2);
    EXPECT_DEATH(h.net.addNode(3, [](const NetPacket &) {}),
                 "out of order");
}

TEST(Network, LongPacketsSlowerThanShort)
{
    Harness h1, h2;
    h1.nodes(2);
    Network::buildFullyConnected(h1.net);
    h2.nodes(2);
    Network::buildFullyConnected(h2.net);

    h1.net.inject(h1.pkt(0, 1, 1));
    h1.eq.run();
    Tick short_t = h1.eq.curTick();

    NetPacket p = h2.pkt(0, 1, 1);
    p.hasData = true;
    h2.net.inject(p);
    h2.eq.run();
    Tick long_t = h2.eq.curTick();
    EXPECT_GT(long_t, short_t);
}

} // namespace
} // namespace piranha
