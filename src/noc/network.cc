#include "noc/network.h"

#include <algorithm>
#include <deque>

#include "fault/injector.h"

namespace piranha {

Network::Network(EventQueue &eq, std::string name, const NetworkParams &p)
    : SimObject(eq, std::move(name)), _p(p)
{
}

void
Network::regStats(StatGroup &parent)
{
    _stats.addScalar("packets", &statPackets, "packets injected");
    _stats.addScalar("long_packets", &statLongPackets,
                     "packets carrying a 64B data section");
    _stats.addScalar("hops", &statHops, "total channel traversals");
    _stats.addScalar("misroutes", &statMisroutes,
                     "hot-potato non-optimal hops");
    _stats.addHistogram("latency_ns", &statLatency,
                        "end-to-end packet latency");
    parent.addChild(&_stats);
}

Tick
Network::icCycles(unsigned n) const
{
    return static_cast<Tick>(n * 1e6 / _p.icClockMhz);
}

void
Network::addNode(NodeId node, NetDeliverFn deliver, unsigned channels)
{
    Node &n = _nodes[node];
    n.deliver = std::move(deliver);
    n.maxChannels = channels;
    n.rng = Pcg32{0x9142a4a, 42 + std::uint64_t(node)};
}

void
Network::setFabric(NetFabric *f)
{
    _fabric = f;
    _nodeStats.clear();
    if (_fabric) {
        _nodeStats.resize(_fabric->numNodes());
        for (NodeStats &s : _nodeStats)
            s.latency = Histogram{50.0, 64};
    }
}

Tick
Network::minCrossLatency() const
{
    // A handoff computed at tick t arrives no earlier than
    // t + occupancy(short) + link flight; occupancy can only grow with
    // backlog or packet length.
    return icCycles(2) + nsToTicks(_p.linkNs);
}

EventQueue &
Network::eqFor(NodeId n)
{
    return _fabric ? _fabric->queueFor(n) : eventQueue();
}

void
Network::mergeShardedStats()
{
    for (NodeId n = 0; n < _nodeStats.size(); ++n) {
        NodeStats &s = _nodeStats[n];
        statPackets += s.packets;
        statLongPackets += s.longPackets;
        statHops += s.hops;
        statMisroutes += s.misroutes;
        statLatency.merge(s.latency);
        s = NodeStats{};
    }
}

void
Network::arriveAt(NetPacket &&pkt, NodeId at, Tick injected)
{
    hop(std::move(pkt), at, injected);
}

void
Network::connect(NodeId a, NodeId b)
{
    Node &na = _nodes.at(a);
    Node &nb = _nodes.at(b);
    if (na.channels.size() >= na.maxChannels ||
        nb.channels.size() >= nb.maxChannels)
        fatal("node %u or %u out of interconnect channels", a, b);
    na.channels.push_back(Channel{b});
    nb.channels.push_back(Channel{a});
}

void
Network::finalizeRoutes()
{
    // BFS from every node over the channel graph.
    for (auto &[id, node] : _nodes) {
        node.nextHop.clear();
        std::deque<NodeId> frontier{id};
        std::unordered_map<NodeId, NodeId> first; // dest -> first hop
        std::unordered_map<NodeId, bool> seen;
        seen[id] = true;
        while (!frontier.empty()) {
            NodeId cur = frontier.front();
            frontier.pop_front();
            for (const Channel &c : _nodes.at(cur).channels) {
                if (seen[c.to])
                    continue;
                seen[c.to] = true;
                first[c.to] = cur == id ? c.to : first[cur];
                frontier.push_back(c.to);
            }
        }
        node.nextHop = std::move(first);
    }
}

void
Network::inject(NetPacket pkt)
{
    // Armed inter-chip faults consume the next injection: drop (the
    // injector re-injects after its retry timeout, modeling the
    // protocol's timeout-and-retry), duplicate (tagged copy follows;
    // the receive filter below discards the second arrival), or delay.
    if (_faults && !_faults->netInjectHook(*this, pkt))
        return;
    NodeId src = pkt.src;
    EventQueue &q = eqFor(src);
    if (_fabric) {
        NodeStats &s = _nodeStats[src];
        ++s.packets;
        if (pkt.isLong())
            ++s.longPackets;
    } else {
        ++statPackets;
        if (pkt.isLong())
            ++statLongPackets;
    }
    Tick injected = q.curTick();
    // Output-queue fall-through (single cycle when the router is
    // ready; transit traffic has priority, modeled in channel
    // backlog).
    q.schedule(injected + nsToTicks(_p.oqNs),
               [this, pkt = std::move(pkt), src, injected]() mutable {
                   hop(std::move(pkt), src, injected);
               });
}

void
Network::hop(NetPacket pkt, NodeId at, Tick injected)
{
    Node &node = _nodes.at(at);
    EventQueue &q = eqFor(at);
    Tick now = q.curTick();
    if (pkt.dst == at) {
        // Receiver-side duplicate filter: hardware interfaces drop a
        // packet whose sequence number was already accepted.
        if (_faults && pkt.faultSeq &&
            !_faults->netDeliverFilter(pkt))
            return;
        // Input queue: interpret the type field through the
        // disposition vector and hand to the target module.
        double lat = static_cast<double>(now - injected) /
                     static_cast<double>(ticksPerNs);
        if (_fabric)
            _nodeStats[at].latency.sample(lat);
        else
            statLatency.sample(lat);
        q.schedule(now + nsToTicks(_p.iqNs),
                   [fn = node.deliver, pkt = std::move(pkt)] {
                       fn(pkt);
                   });
        return;
    }
    auto rit = node.nextHop.find(pkt.dst);
    if (rit == node.nextHop.end())
        panic("network: no route %u -> %u", at, pkt.dst);
    NodeId preferred = rit->second;

    Channel *chan = nullptr;
    for (Channel &c : node.channels)
        if (c.to == preferred)
            chan = &c;
    if (!chan)
        panic("network: next hop %u not a neighbor of %u", preferred,
              at);

    Tick backlog = chan->busyUntil > now ? chan->busyUntil - now : 0;
    if (backlog > icCycles(_p.misrouteThresholdIc) &&
        pkt.age < _p.maxAge && node.channels.size() > 1) {
        // Hot potato: deflect to a random alternate channel with a
        // shorter backlog; the age field escalates priority so the
        // packet eventually takes the optimal path.
        Pcg32 &rng = _fabric ? node.rng : _rng;
        Channel &alt = node.channels[rng.below(
            static_cast<std::uint32_t>(node.channels.size()))];
        if (alt.to != preferred && alt.busyUntil < chan->busyUntil) {
            if (_fabric)
                ++_nodeStats[at].misroutes;
            else
                ++statMisroutes;
            ++pkt.age;
            chan = &alt;
        }
    }

    Tick start = std::max(now, chan->busyUntil);
    Tick occupancy = icCycles(pkt.icCycles());
    chan->busyUntil = start + occupancy;
    Tick arrive = start + occupancy + nsToTicks(_p.linkNs);
    if (_fabric)
        ++_nodeStats[at].hops;
    else
        ++statHops;
    NodeId to = chan->to;
    if (_fabric) {
        // Canonical cross-node handoff: staged by arrival tick, merged
        // in (send tick, source, sequence) order at the destination.
        _fabric->post(at, to, arrive, injected, std::move(pkt));
        return;
    }
    eventQueue().schedule(arrive, [this, pkt = std::move(pkt), to,
                                   injected]() mutable {
        hop(std::move(pkt), to, injected);
    });
}

void
Network::buildFullyConnected(Network &net)
{
    std::vector<NodeId> ids;
    for (const auto &[id, _] : net._nodes)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (std::size_t i = 0; i < ids.size(); ++i)
        for (std::size_t j = i + 1; j < ids.size(); ++j)
            net.connect(ids[i], ids[j]);
    net.finalizeRoutes();
}

void
Network::buildRing(Network &net)
{
    std::vector<NodeId> ids;
    for (const auto &[id, _] : net._nodes)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    if (ids.size() < 2)
        return;
    if (ids.size() == 2) {
        net.connect(ids[0], ids[1]);
    } else {
        for (std::size_t i = 0; i < ids.size(); ++i)
            net.connect(ids[i], ids[(i + 1) % ids.size()]);
    }
    net.finalizeRoutes();
}

} // namespace piranha
