#include "sim/parallel_engine.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <thread>

#include "sim/logging.h"
#include "sim/profiler.h"

namespace piranha {

namespace {

// Upper bound on a single epoch even when the plan has unlimited
// lookahead (single-chip runs): keeps the abort/deadline poll at the
// barrier responsive instead of letting one window swallow the run.
constexpr Tick kMaxWindow = Tick(1) << 22;

} // namespace

ParallelEngine::ParallelEngine(ShardPlan plan) : _plan(std::move(plan))
{
    if (_plan.shards == 0)
        _plan.shards = 1;
    if (_plan.queues.empty())
        fatal("parallel engine: no event queues");
    if (_plan.shardOf.size() != _plan.queues.size())
        fatal("parallel engine: shard map size mismatch");
    _nodesOfShard.assign(_plan.shards, {});
    for (NodeId n = 0; n < _plan.queues.size(); ++n) {
        if (_plan.shardOf[n] >= _plan.shards)
            fatal("parallel engine: node %u mapped to shard %u of %u",
                  n, _plan.shardOf[n], _plan.shards);
        _nodesOfShard[_plan.shardOf[n]].push_back(n);
    }
}

ParallelRunOutcome
ParallelEngine::run()
{
    ParallelRunOutcome out;
    out.shardSeconds.assign(_plan.shards, 0.0);
    out.shardProfiles.assign(_plan.shards, {});

    struct Decision
    {
        bool stop = false;
        bool deadlineHit = false;
        bool aborted = false;
        Tick limit = 0; //!< inclusive: run events with when <= limit
    };
    Decision dec;

    // Completion step of the post-drain barrier: runs exactly once per
    // phase, on one thread, while every worker is parked — so it may
    // touch all queues and the shared decision without synchronization
    // beyond the barrier itself.
    auto decide = [this, &dec, &out]() noexcept {
        if (_plan.aborted && _plan.aborted()) {
            dec.stop = true;
            dec.aborted = true;
            return;
        }
        Tick minNext = ~Tick(0);
        for (EventQueue *q : _plan.queues)
            minNext = std::min(minNext, q->nextEventTick());
        if (minNext == ~Tick(0)) {
            dec.stop = true; // quiesced: every queue drained
            return;
        }
        if (_plan.deadline != ~Tick(0) && minNext >= _plan.deadline) {
            dec.stop = true;
            dec.deadlineHit = true;
            return;
        }
        Tick len = std::min(_plan.lookahead, kMaxWindow);
        if (_plan.hooks)
            len += _plan.hooks->epochStretch;
        Tick limit = minNext + len - 1;
        if (limit < minNext) // overflow guard
            limit = ~Tick(0) - 1;
        if (_plan.deadline != ~Tick(0) && limit >= _plan.deadline)
            limit = _plan.deadline - 1;
        dec.stop = false;
        dec.limit = limit;
        ++out.epochs;
    };

    std::barrier postEpoch(static_cast<std::ptrdiff_t>(_plan.shards));
    std::barrier postDrain(static_cast<std::ptrdiff_t>(_plan.shards),
                           decide);

    auto worker = [this, &dec, &out, &postEpoch, &postDrain](unsigned s) {
        auto t0 = std::chrono::steady_clock::now();
        prof::reset();
        // The epoch loop (barriers, mailbox drains, queue dispatch) is
        // kernel time, as the serial run loop's is.
        PIR_PROF(Kernel);
        for (;;) {
            // Phase 1: every worker finished the previous epoch, so
            // all mailbox writes are complete and visible.
            postEpoch.arrive_and_wait();
            if (_plan.fabric)
                _plan.fabric->drainMailboxesFor(s);
            // Phase 2: all staging done; one thread decides the next
            // window (or stop) in the barrier's completion step.
            postDrain.arrive_and_wait();
            if (dec.stop)
                break;
            for (NodeId n : _nodesOfShard[s]) {
                EventQueue &q = *_plan.queues[n];
                q.setHorizon(dec.limit);
                q.run(dec.limit);
            }
        }
        out.shardProfiles[s] = prof::snapshot();
        out.shardSeconds[s] =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
    };

    std::vector<std::thread> threads;
    threads.reserve(_plan.shards);
    for (unsigned s = 0; s < _plan.shards; ++s)
        threads.emplace_back(worker, s);
    for (std::thread &t : threads)
        t.join();

    // Leave the queues usable by ordinary serial code again.
    for (EventQueue *q : _plan.queues)
        q->setHorizon(~Tick(0));

    out.deadlineHit = dec.deadlineHit;
    out.abortRequested = dec.aborted;
    return out;
}

} // namespace piranha
