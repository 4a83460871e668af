#include "noc/network.h"

#include <algorithm>
#include <deque>

#include "fault/injector.h"

namespace piranha {

Network::Network(EventQueue &eq, std::string name)
    : SimObject(eq, std::move(name)),
      _fabric([this](NetPacket &&pkt, NodeId at, Tick injected) {
          hop(std::move(pkt), at, injected);
      })
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
    return static_cast<Tick>(n * 1e6 / icClockMhz);
}

void
Network::addNode(NodeId node, NetDeliverFn deliver, unsigned channels)
{
    if (node != _nodes.size())
        fatal("network: node %u added out of order (next id is %zu)",
              node, _nodes.size());
    Node &n = _nodes.emplace_back();
    n.deliver = std::move(deliver);
    n.maxChannels = channels;
    n.rng = Pcg32{0x9142a4a, 42 + std::uint64_t(node)};
    _fabric.addNode(eventQueue());
}

Tick
Network::minCrossLatency() const
{
    // A handoff computed at tick t arrives no earlier than
    // t + occupancy(short) + link flight; occupancy can only grow with
    // backlog or packet length.
    return icCycles(2) + nsToTicks(linkNs);
}

void
Network::mergeShardedStats()
{
    for (Node &node : _nodes) {
        NodeStats &s = node.stats;
        statPackets += s.packets;
        statLongPackets += s.longPackets;
        statHops += s.hops;
        statMisroutes += s.misroutes;
        statLatency.merge(s.latency);
        s = NodeStats{};
    }
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
    for (NodeId id = 0; id < _nodes.size(); ++id) {
        std::vector<NodeId> &first = _nodes[id].nextHop; // dest -> hop
        first.assign(_nodes.size(), kNoRoute);
        std::vector<bool> seen(_nodes.size(), false);
        std::deque<NodeId> frontier{id};
        seen[id] = true;
        while (!frontier.empty()) {
            NodeId cur = frontier.front();
            frontier.pop_front();
            for (const Channel &c : _nodes[cur].channels) {
                if (seen[c.to])
                    continue;
                seen[c.to] = true;
                first[c.to] = cur == id ? c.to : first[cur];
                frontier.push_back(c.to);
            }
        }
    }
}

void
Network::schedulePacket(NodeId at, Tick when, bool deliver, Tick injected,
                        NetPacket &&pkt)
{
    PacketEvent *ev = _nodes[at].events.acquire(this, at);
    ev->deliver = deliver;
    ev->injected = injected;
    ev->pkt = std::move(pkt);
    _fabric.queueFor(at).schedule(*ev, when);
}

void
Network::PacketEvent::process()
{
    // Detach the payload and recycle before dispatching: the handler
    // may schedule further packets at this node.
    NetPacket p = std::move(pkt);
    Network *n = net;
    NodeId node = at;
    bool iq = deliver;
    Tick inj = injected;
    n->_nodes[node].events.release(this);
    if (iq)
        n->_nodes[node].deliver(p);
    else
        n->hop(std::move(p), node, inj);
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
    EventQueue &q = _fabric.queueFor(src);
    NodeStats &s = _nodes.at(src).stats;
    ++s.packets;
    if (pkt.isLong())
        ++s.longPackets;
    Tick injected = q.curTick();
    // Output-queue fall-through (single cycle when the router is
    // ready; transit traffic has priority, modeled in channel
    // backlog).
    schedulePacket(src, injected + nsToTicks(oqNs), false, injected,
                   std::move(pkt));
}

void
Network::hop(NetPacket pkt, NodeId at, Tick injected)
{
    Node &node = _nodes.at(at);
    EventQueue &q = _fabric.queueFor(at);
    Tick now = q.curTick();
    if (pkt.dst == at) {
        // Receiver-side duplicate filter: hardware interfaces drop a
        // packet whose sequence number was already accepted.
        if (_faults && pkt.faultSeq &&
            !_faults->netDeliverFilter(pkt))
            return;
        // Input queue: interpret the type field through the
        // disposition vector and hand to the target module.
        node.stats.latency.sample(static_cast<double>(now - injected) /
                                  static_cast<double>(ticksPerNs));
        schedulePacket(at, now + nsToTicks(iqNs), true, injected,
                       std::move(pkt));
        return;
    }
    NodeId preferred =
        pkt.dst < node.nextHop.size() ? node.nextHop[pkt.dst] : kNoRoute;
    if (preferred == kNoRoute)
        panic("network: no route %u -> %u", at, pkt.dst);

    Channel *chan = nullptr;
    for (Channel &c : node.channels)
        if (c.to == preferred)
            chan = &c;
    if (!chan)
        panic("network: next hop %u not a neighbor of %u", preferred,
              at);

    Tick backlog = chan->busyUntil > now ? chan->busyUntil - now : 0;
    if (backlog > icCycles(misrouteThresholdIc) &&
        pkt.age < maxAge && node.channels.size() > 1) {
        // Hot potato: deflect to a random alternate channel with a
        // shorter backlog; the age field escalates priority so the
        // packet eventually takes the optimal path.
        Channel &alt = node.channels[node.rng.below(
            static_cast<std::uint32_t>(node.channels.size()))];
        if (alt.to != preferred && alt.busyUntil < chan->busyUntil) {
            ++node.stats.misroutes;
            ++pkt.age;
            chan = &alt;
        }
    }

    Tick start = std::max(now, chan->busyUntil);
    Tick occupancy = icCycles(pkt.icCycles());
    chan->busyUntil = start + occupancy;
    Tick arrive = start + occupancy + nsToTicks(linkNs);
    ++node.stats.hops;
    // Canonical cross-node handoff: staged by arrival tick, merged in
    // (send tick, source, sequence) order at the destination.
    _fabric.post(at, chan->to, arrive, injected, std::move(pkt));
}

void
Network::buildFullyConnected(Network &net)
{
    for (NodeId a = 0; a < net._nodes.size(); ++a)
        for (NodeId b = a + 1; b < net._nodes.size(); ++b)
            net.connect(a, b);
    net.finalizeRoutes();
}

void
Network::buildRing(Network &net)
{
    NodeId n = static_cast<NodeId>(net._nodes.size());
    if (n < 2)
        return;
    if (n == 2) {
        net.connect(0, 1);
    } else {
        for (NodeId i = 0; i < n; ++i)
            net.connect(i, (i + 1) % n);
    }
    net.finalizeRoutes();
}

} // namespace piranha
