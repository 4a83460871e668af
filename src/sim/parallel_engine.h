/**
 * @file
 * Deterministic sharded event-loop driver (DESIGN.md §13).
 *
 * The engine partitions a simulation's per-node event queues across
 * worker threads and runs them in lock-step epochs of conservative
 * lookahead: within an epoch every node only touches node-local state,
 * so the shards never contend; cross-node traffic goes through the
 * NetFabric mailboxes and is folded in at the epoch barrier. Because
 * each node always owns a whole queue and cross-node arrivals are
 * merged in a canonical order (see net_fabric.h), the per-node event
 * streams — and therefore stat trees, coherence traces, and event
 * counts — are identical for any shard count, including the serial
 * engine (the one-shard degenerate case run without this driver).
 *
 * Safety sketch: let L = NetFabric lookahead (minimum cross-node
 * latency) and [S, S+L) the current epoch. A post made at local time
 * t ∈ [S, S+L) has arrival tick >= t + L >= S + L, i.e. at or beyond
 * the epoch end — so draining mailboxes at the barrier stages every
 * post before any event that could observe it runs. The mutation hook
 * ParallelHooks::epochStretch falsifies exactly this inequality, and
 * the identity tests prove the gate notices.
 */

#ifndef PIRANHA_SIM_PARALLEL_ENGINE_H
#define PIRANHA_SIM_PARALLEL_ENGINE_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "noc/net_fabric.h"
#include "sim/event_queue.h"
#include "sim/types.h"

namespace piranha {

/** Static description of a sharded run. */
struct ShardPlan
{
    /** Per-node event queue; index is the node id. */
    std::vector<EventQueue *> queues;
    /** Owning shard per node (contiguous ranges, ascending). */
    std::vector<unsigned> shardOf;
    /** Number of worker threads. */
    unsigned shards = 1;
    /** Cross-node delivery layer; null when nodes never interact. */
    NetFabric *fabric = nullptr;
    /** Epoch length bound (NetFabric lookahead); ~0 when no fabric. */
    Tick lookahead = ~Tick(0);
    /** Stop once no event earlier than this remains; ~0 = none. */
    Tick deadline = ~Tick(0);
    /** Cooperative abort, polled once per epoch; may be empty. */
    std::function<bool()> aborted;
    /** Mutation/test hooks (see net_fabric.h); may be null. */
    ParallelHooks *hooks = nullptr;
};

/** What the engine observed while driving the run. */
struct ParallelRunOutcome
{
    bool deadlineHit = false;    //!< stopped at ShardPlan::deadline
    bool abortRequested = false; //!< stopped by the abort callback
    std::uint64_t epochs = 0;    //!< barrier windows executed
    /** Host seconds each worker spent, indexed by shard. */
    std::vector<double> shardSeconds;
    /** Per-worker profiler snapshots (empty for a worker that took
     *  no sample). */
    std::vector<std::map<std::string, double>> shardProfiles;
};

/**
 * Drives the queues of a ShardPlan to quiescence (or deadline/abort).
 * Reusable: run() may be called again after the owner schedules more
 * work, which is how the litmus driver interleaves issue and readback
 * phases under the parallel engine.
 */
class ParallelEngine
{
  public:
    explicit ParallelEngine(ShardPlan plan);

    /** Run until every queue is drained, the deadline, or abort. */
    ParallelRunOutcome run();

  private:
    ShardPlan _plan;
    std::vector<std::vector<NodeId>> _nodesOfShard;
};

} // namespace piranha

#endif // PIRANHA_SIM_PARALLEL_ENGINE_H
