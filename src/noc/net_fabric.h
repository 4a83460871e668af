/**
 * @file
 * Canonical cross-chip delivery fabric (DESIGN.md §13).
 *
 * The fabric decouples *when a cross-chip handoff is computed* from
 * *how its arrival is ordered at the destination*, which is what makes
 * a sharded parallel run bit-identical to the serial engine:
 *
 *  - Every cross-node channel traversal posts a Post record instead of
 *    scheduling the destination hop directly. Posts to the same
 *    (destination node, arrival tick) accumulate in a staging bucket.
 *  - Each bucket is a pooled priority event of its destination node,
 *    scheduled at the arrival tick (EventQueue::schedulePriority) when
 *    its first post stages, so arrivals at tick T execute before any
 *    normal local event of tick T.
 *  - The flush processes its bucket in the canonical order
 *    (send tick, source node, per-source sequence) — a pure function
 *    of the senders' deterministic streams, independent of which
 *    thread produced the post or when it was drained.
 *
 * Every Network owns one fabric; it is the only delivery path. Under
 * the serial engine (one shard) posts stage immediately. Under the
 * parallel engine a post whose destination lives on another shard
 * is appended to a per-(source shard, destination node) mailbox and
 * drained at the next epoch barrier; mailboxes are single-writer /
 * single-reader with the barrier providing the happens-before edge,
 * so they need no locks. Because every cross-node traversal takes at
 * least minCrossLatency() ticks, an epoch of that length guarantees
 * each post's arrival tick lies beyond the epoch in which it was
 * made — the conservative-lookahead safety argument.
 */

#ifndef PIRANHA_NOC_NET_FABRIC_H
#define PIRANHA_NOC_NET_FABRIC_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "noc/packet.h"
#include "sim/event_queue.h"
#include "sim/types.h"

namespace piranha {

/**
 * Test hooks that deliberately break the parallel engine's safety
 * argument so the identity gate can be proven live (mutation tests,
 * same philosophy as the PR 2 fault-seeded litmus suite). All-default
 * hooks are behavior-neutral.
 */
struct ParallelHooks
{
    /**
     * Added to the epoch length: a positive value claims more
     * lookahead than the interconnect provides, so a cross-shard post
     * can target a tick inside the already-running epoch and arrive
     * late (counted below).
     */
    Tick epochStretch = 0;

    /** Flush staging buckets in reverse canonical order. */
    bool reverseDrain = false;

    /** Posts whose arrival tick had already passed at drain time. */
    std::atomic<std::uint64_t> lateArrivals{0};

    /** Flushes whose bucket order actually changed under reverseDrain. */
    std::atomic<std::uint64_t> reorderedFlushes{0};
};

/** Canonical staging + mailbox layer between Network and the engines. */
class NetFabric
{
  public:
    /** One staged cross-node handoff. */
    struct Post
    {
        Tick arrive = 0;   //!< computed arrival tick at the next node
        Tick sendTick = 0; //!< sender-side tick of the handoff
        NodeId src = 0;    //!< node that performed the handoff
        std::uint64_t srcSeq = 0; //!< per-source post sequence
        Tick injected = 0; //!< original injection tick (latency stat)
        NetPacket pkt;
    };

    /** Continues the hop pipeline at the destination node. */
    using ArriveFn = std::function<void(NetPacket &&, NodeId, Tick)>;

    explicit NetFabric(ArriveFn arrive) : _arrive(std::move(arrive)) {}

    // Pooled flush events point back at their fabric.
    NetFabric(const NetFabric &) = delete;
    NetFabric &operator=(const NetFabric &) = delete;

    /**
     * Append the next node (ids are dense, in addNode order) on event
     * queue @p q, in shard 0: the serial layout, one shard.
     */
    void
    addNode(EventQueue &q)
    {
        _queues.push_back(&q);
        _shardOf.push_back(0);
        _staging.emplace_back();
        _postSeq.push_back(0);
        _mail.resize(_queues.size());
    }

    /**
     * Re-home every node before any traffic: node n runs on
     * @p queue_of_node[n] in shard @p shard_of_node[n] of
     * @p num_shards (the sharded engine gives each chip its own
     * queue; the serial engine maps all of them to one).
     */
    void
    mapShards(std::vector<EventQueue *> queue_of_node,
              std::vector<unsigned> shard_of_node, unsigned num_shards,
              ParallelHooks *hooks)
    {
        _queues = std::move(queue_of_node);
        _shardOf = std::move(shard_of_node);
        _numShards = num_shards;
        _hooks = hooks;
        _mail.assign(static_cast<std::size_t>(_numShards) *
                         _queues.size(),
                     {});
    }

    /** The event queue node @p n runs on. */
    EventQueue &queueFor(NodeId n) { return *_queues[n]; }

    /**
     * Record a cross-node handoff computed at @p src (on @p src's
     * shard thread, during event execution). Same-shard destinations
     * stage immediately; cross-shard destinations go to the mailbox
     * drained at the next epoch barrier.
     */
    void
    post(NodeId src, NodeId dst, Tick arrive, Tick injected,
         NetPacket &&pkt)
    {
        Post p;
        p.arrive = arrive;
        p.sendTick = _queues[src]->curTick();
        p.src = src;
        p.srcSeq = _postSeq[src]++;
        p.injected = injected;
        p.pkt = std::move(pkt);
        if (_shardOf[dst] == _shardOf[src])
            stage(dst, std::move(p));
        else
            _mail[_shardOf[src] * _queues.size() + dst].push_back(
                std::move(p));
    }

    /**
     * Epoch barrier: move every mailboxed post targeting a node owned
     * by @p shard into its staging bucket. Must be called by the
     * owning shard's thread, between barrier phases.
     */
    void
    drainMailboxesFor(unsigned shard)
    {
        for (unsigned s = 0; s < _numShards; ++s) {
            for (NodeId d = 0; d < _queues.size(); ++d) {
                if (_shardOf[d] != shard)
                    continue;
                std::vector<Post> &m = _mail[s * _queues.size() + d];
                for (Post &p : m)
                    stage(d, std::move(p));
                m.clear();
            }
        }
    }

  private:
    /**
     * One staging bucket: the posts to node dst arriving at the tick
     * the event is scheduled for. Its posts vector keeps its capacity
     * across reuse.
     */
    struct FlushEvent final : public Event
    {
        FlushEvent(NetFabric *f, NodeId d) : fabric(f), dst(d) {}
        void process() override { fabric->flush(*this); }
        const char *eventName() const override { return "fabric.flush"; }
        NetFabric *fabric;
        NodeId dst;
        std::vector<Post> posts;
    };

    /**
     * Per-destination buckets. Only the shard owning the destination
     * stages into them (directly or when draining its mailboxes), so
     * no two threads share a pool.
     */
    struct Staging
    {
        EventPool<FlushEvent> pool;
        std::vector<FlushEvent *> pending; //!< scheduled, unflushed
    };

    void
    stage(NodeId dst, Post &&p)
    {
        EventQueue &q = *_queues[dst];
        Tick at = p.arrive;
        if (at <= q.curTick()) {
            // Only reachable when a mutation hook broke the lookahead
            // guarantee: legitimate posts always stage strictly in the
            // destination's future (arrive >= epoch end > its last
            // executed tick), so the destination has already run this
            // tick — the priority ordering of the arrival is lost even
            // when the tick itself has not passed. Deliver as soon as
            // possible and count it.
            at = q.curTick();
            if (_hooks)
                _hooks->lateArrivals.fetch_add(
                    1, std::memory_order_relaxed);
        }
        Staging &st = _staging[dst];
        FlushEvent *b = nullptr;
        for (FlushEvent *f : st.pending) {
            if (f->when() == at) {
                b = f;
                break;
            }
        }
        if (!b) {
            b = st.pool.acquire(this, dst);
            st.pending.push_back(b);
            q.schedulePriority(*b, at);
        }
        b->posts.push_back(std::move(p));
    }

    void
    flush(FlushEvent &ev)
    {
        // Unlist first: a post staged from here on (only a late one,
        // see stage()) opens a new bucket.
        Staging &st = _staging[ev.dst];
        *std::find(st.pending.begin(), st.pending.end(), &ev) =
            st.pending.back();
        st.pending.pop_back();
        std::vector<Post> &posts = ev.posts;
        auto canon = [](const Post &a, const Post &b) {
            if (a.sendTick != b.sendTick)
                return a.sendTick < b.sendTick;
            if (a.src != b.src)
                return a.src < b.src;
            return a.srcSeq < b.srcSeq;
        };
        std::sort(posts.begin(), posts.end(), canon);
        if (_hooks && _hooks->reverseDrain && posts.size() > 1) {
            std::reverse(posts.begin(), posts.end());
            _hooks->reorderedFlushes.fetch_add(
                1, std::memory_order_relaxed);
        }
        for (Post &p : posts)
            _arrive(std::move(p.pkt), ev.dst, p.injected);
        posts.clear();
        st.pool.release(&ev);
    }

    std::vector<EventQueue *> _queues;
    std::vector<unsigned> _shardOf;
    unsigned _numShards = 1;
    ArriveFn _arrive;
    ParallelHooks *_hooks = nullptr;
    std::vector<Staging> _staging;
    std::vector<std::vector<Post>> _mail;
    std::vector<std::uint64_t> _postSeq;
};

} // namespace piranha

#endif // PIRANHA_NOC_NET_FABRIC_H
