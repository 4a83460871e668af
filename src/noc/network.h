/**
 * @file
 * System interconnect: output queue, router, input queue (paper §2.6).
 *
 * Each Piranha processing node has four channels (I/O nodes two) used
 * for point-to-point links of 22 wires per direction signaling at
 * 2 Gbit/s/wire (the interconnect clock is four times the 500 MHz
 * system clock; short packets occupy a channel for 2 interconnect
 * cycles, long packets for 10). The router is topology-independent,
 * adaptive, virtual cut-through, with a buffer pool shared across
 * lanes; "hot potato" routing with increasing age and priority lets a
 * non-optimally-routed message reach a free buffer anywhere in the
 * network, so per-node buffering grows linearly rather than
 * quadratically with node count.
 *
 * The model routes packets hop by hop over per-direction channels
 * with cut-through occupancy, misroutes to a random alternate
 * neighbor when the preferred channel's backlog exceeds a threshold
 * (until the packet's age forces the optimal path), gives transit
 * traffic priority over fresh injections at the OQ, and lets
 * low-priority traffic bypass blocked high-priority traffic at the
 * IQ, which dispatches by packet type through a disposition vector.
 */

#ifndef PIRANHA_NOC_NETWORK_H
#define PIRANHA_NOC_NETWORK_H

#include <functional>
#include <limits>
#include <vector>

#include "noc/net_fabric.h"
#include "noc/packet.h"
#include "sim/rng.h"
#include "sim/sim_object.h"
#include "stats/stats.h"

namespace piranha {

/** Interconnect configuration. */
struct NetworkParams
{
    double linkNs = 10.0;        //!< per-hop wire + synchronization
    double icClockMhz = 2000.0;  //!< interconnect clock (4x system)
    double oqNs = 2.0;           //!< output-queue fall-through
    double iqNs = 4.0;           //!< input-queue + packet switch
    unsigned misrouteThresholdIc = 8; //!< backlog (IC cycles) to misroute
    unsigned maxAge = 3;         //!< misroutes before forcing optimal
};

/** Delivery callback a node registers for terminal packets. */
using NetDeliverFn = std::function<void(const NetPacket &)>;

/**
 * The whole-system interconnect. Every cross-node hop goes through
 * the owned NetFabric (DESIGN.md §13), so deliveries into a node
 * follow the canonical (send tick, source, sequence) order whether
 * the system runs on one event queue or on per-chip queues under the
 * sharded engine.
 */
class Network : public SimObject
{
  public:
    Network(EventQueue &eq, std::string name,
            const NetworkParams &p = NetworkParams{});

    /**
     * Register @p node with its terminal delivery callback. Ids are
     * dense: each call must pass the next one (0, 1, ...). The node
     * runs on this network's event queue until PiranhaSystem re-homes
     * it with fabric().mapShards().
     */
    void addNode(NodeId node, NetDeliverFn deliver,
                 unsigned channels = 4);

    /** Add a bidirectional channel between @p a and @p b. */
    void connect(NodeId a, NodeId b);

    /** Compute shortest-path next-hop tables (call after connect). */
    void finalizeRoutes();

    /** Inject a packet from @p src's output queue. */
    void inject(NetPacket pkt);

    /**
     * Fault injection (src/fault/): inject() offers each packet to
     * the injector (drop / duplicate / delay); terminal delivery runs
     * a receiver-side filter that discards duplicate arrivals.
     */
    void setFaultInjector(FaultInjector *f) { _faults = f; }

    /** Convenience topology builders. */
    static void buildFullyConnected(Network &net);
    static void buildRing(Network &net);

    /** The delivery fabric: per-node queues, shards and mailboxes. */
    NetFabric &fabric() { return _fabric; }

    /**
     * Smallest possible sender-to-next-node latency of any handoff:
     * the conservative lookahead bound for the parallel engine's
     * epochs (short-packet occupancy + link flight time).
     */
    Tick minCrossLatency() const;

    /**
     * Fold the per-node stat partials into the registered stats in
     * node order. Every node accumulates its own partials (no stat is
     * shared across shard threads), so read the stats after this.
     */
    void mergeShardedStats();

    void regStats(StatGroup &parent);

    Scalar statPackets;
    Scalar statLongPackets;
    Scalar statHops;
    Scalar statMisroutes;
    Histogram statLatency{50.0, 64}; //!< end-to-end ns

  private:
    struct Channel
    {
        NodeId to;
        Tick busyUntil = 0;
    };

    /** Per-node stat partials, merged by mergeShardedStats(). */
    struct NodeStats
    {
        double packets = 0;
        double longPackets = 0;
        double hops = 0;
        double misroutes = 0;
        Histogram latency{50.0, 64};
    };

    /**
     * One packet's output-queue fall-through at its source (the first
     * hop) or its input-queue hand-off at its destination. Pooled per
     * node, so only the thread running that node's queue touches it.
     */
    struct PacketEvent final : public Event
    {
        PacketEvent(Network *n, NodeId node) : net(n), at(node) {}
        void process() override;
        const char *eventName() const override { return "net.packet"; }
        Network *net;
        NodeId at;
        bool deliver = false; //!< IQ hand-off; else the first hop
        Tick injected = 0;
        NetPacket pkt;
    };

    static constexpr NodeId kNoRoute = std::numeric_limits<NodeId>::max();

    struct Node
    {
        NetDeliverFn deliver;
        unsigned maxChannels = 4;
        std::vector<Channel> channels;
        // next hop per destination id (kNoRoute when unreachable)
        std::vector<NodeId> nextHop;
        // node-local misroute stream, so results don't depend on
        // which thread interleaving consumed a shared generator
        Pcg32 rng;
        NodeStats stats;
        EventPool<PacketEvent> events;
    };

    /** Schedule @p pkt's first hop or IQ hand-off at node @p at. */
    void schedulePacket(NodeId at, Tick when, bool deliver, Tick injected,
                        NetPacket &&pkt);
    void hop(NetPacket pkt, NodeId at, Tick injected);
    Tick icCycles(unsigned n) const;

    NetworkParams _p;
    FaultInjector *_faults = nullptr;
    std::vector<Node> _nodes;
    NetFabric _fabric;
    StatGroup _stats{"network"};
};

} // namespace piranha

#endif // PIRANHA_NOC_NETWORK_H
