#include "system/sim_system.h"

#include <algorithm>
#include <sstream>

#include "fault/injector.h"
#include "sim/parallel_engine.h"
#include "sim/profiler.h"

namespace piranha {

namespace {

/**
 * The forward-progress watchdog trips when no instruction retires
 * anywhere in the system for this much simulated time while cores
 * still have work. Generous: the slowest legitimate gap is a few
 * memory round trips, orders of magnitude under a millisecond.
 */
constexpr Tick watchdogStallLimit = 2000 * ticksPerUs;

} // namespace

PiranhaSystem::PiranhaSystem(const SystemConfig &cfg) : _cfg(cfg)
{
    // Cores attach to L1 slots 0..cpusPerChip-1, and a chip builds
    // chip.cpus of them.
    if (cfg.cpusPerChip != cfg.chip.cpus)
        fatal("config %s: cpusPerChip (%u) differs from chip.cpus (%u)",
              cfg.name.c_str(), cfg.cpusPerChip, cfg.chip.cpus);
    _amap.numNodes = cfg.nodes;
    _parallel = _cfg.engine == EngineKind::Parallel;
    if (_parallel && _cfg.faults.any()) {
        warn("parallel engine does not support fault injection; "
             "falling back to serial");
        _parallel = false;
    }
    if (_parallel && _cfg.chip.tracer) {
        // A single shared trace ring across chips would be a data
        // race under the parallel engine; per-chip rings go through
        // SystemConfig::chipTracers instead.
        warn("parallel engine needs per-chip tracers "
             "(SystemConfig::chipTracers); falling back to serial");
        _parallel = false;
    }
    // The injector must exist before the chips: every L1/L2/MC/ICS
    // captures the pointer at construction.
    if (_cfg.faults.any())
        _injector = std::make_unique<FaultInjector>(_eq, "faults",
                                                    _cfg.faults,
                                                    _cfg.nodes);
    _shardOf.assign(cfg.nodes, 0);
    if (_parallel) {
        _shards = _cfg.shards ? std::min(_cfg.shards, cfg.nodes)
                              : cfg.nodes;
        for (unsigned n = 0; n < cfg.nodes; ++n) {
            _shardOf[n] = n * _shards / cfg.nodes;
            _chipQueues.push_back(std::make_unique<EventQueue>());
        }
    }
    if (cfg.nodes > 1)
        _net = std::make_unique<Network>(_eq, "net");
    for (unsigned n = 0; n < cfg.nodes; ++n) {
        ChipParams chipP = _cfg.chip;
        if (n < _cfg.chipTracers.size() && _cfg.chipTracers[n])
            chipP.tracer = _cfg.chipTracers[n];
        _chips.push_back(std::make_unique<PiranhaChip>(
            chipQueue(n), strFormat("node%u", n),
            static_cast<NodeId>(n), _amap, chipP, _net.get(),
            _injector.get()));
    }
    if (_net) {
        for (unsigned n = 0; n < cfg.nodes; ++n) {
            PiranhaChip *c = _chips[n].get();
            _net->addNode(static_cast<NodeId>(n),
                          [c](const NetPacket &p) { c->deliverNet(p); });
        }
        if (cfg.nodes <= 5)
            Network::buildFullyConnected(*_net);
        else
            Network::buildRing(*_net);
        _net->regStats(_stats);
        // Both engines route inter-chip traffic through the canonical
        // fabric (DESIGN.md §13): the serial engine is the one-shard
        // case, which is what makes its per-chip event streams — and
        // so stats and traces — identical to any sharded run.
        std::vector<EventQueue *> qs;
        for (unsigned n = 0; n < cfg.nodes; ++n)
            qs.push_back(&chipQueue(n));
        _net->fabric().mapShards(std::move(qs), _shardOf, _shards,
                                 _cfg.parallelHooks);
    }
    for (unsigned n = 0; n < cfg.nodes; ++n)
        _chips[n]->regStats(_stats);
    if (_injector) {
        for (unsigned n = 0; n < cfg.nodes; ++n) {
            PiranhaChip &c = *_chips[n];
            FaultInjector::NodeSites s;
            s.store = &c.memory();
            s.ics = &c.ics();
            for (unsigned b = 0; b < 8; ++b) {
                s.mcs.push_back(&c.mc(b));
                s.l2s.push_back(&c.l2(b));
            }
            for (unsigned cp = 0; cp < cfg.cpusPerChip; ++cp) {
                s.l1s.push_back(&c.dl1(cp));
                s.l1s.push_back(&c.il1(cp));
            }
            _injector->attachNode(n, std::move(s));
        }
        if (_net)
            _injector->attachNetwork(_net.get());
        _injector->arm();
    }
}

PiranhaSystem::~PiranhaSystem() = default;

std::uint64_t
PiranhaSystem::totalEventsExecuted() const
{
    if (!_parallel)
        return _eq.executed();
    std::uint64_t total = 0;
    for (const auto &q : _chipQueues)
        total += q->executed();
    return total;
}

Tick
PiranhaSystem::now() const
{
    Tick t = _eq.curTick();
    for (const auto &q : _chipQueues)
        t = std::max(t, q->curTick());
    return t;
}

ParallelRunOutcome
PiranhaSystem::runShards(Tick deadline,
                         const std::function<bool()> &should_abort)
{
    ShardPlan plan;
    for (unsigned n = 0; n < _cfg.nodes; ++n)
        plan.queues.push_back(&chipQueue(n));
    plan.shardOf = _shardOf;
    plan.shards = _shards;
    plan.fabric = _net ? &_net->fabric() : nullptr;
    plan.lookahead = _net ? _net->minCrossLatency() : ~Tick(0);
    plan.deadline = deadline;
    plan.aborted = should_abort;
    plan.hooks = _cfg.parallelHooks;
    return ParallelEngine(std::move(plan)).run();
}

bool
PiranhaSystem::drain(Tick deadline)
{
    bool drained = _parallel ? !runShards(deadline, {}).deadlineHit
                             : _eq.run(deadline);
    if (_net)
        _net->mergeShardedStats();
    return drained;
}

std::string
PiranhaSystem::diagnosticDump(const std::string &why) const
{
    std::uint64_t pending = _eq.pending();
    if (_parallel) {
        pending = 0;
        for (const auto &q : _chipQueues)
            pending += q->pending();
    }
    std::ostringstream os;
    os << "=== diagnostic dump @" << chipQueue(0).curTick() << "ps ("
       << why << ") ===\n";
    os << "events: executed=" << totalEventsExecuted()
       << " pending=" << pending << "\n";
    unsigned done = 0;
    for (const auto &core : _cores)
        if (core->done())
            ++done;
    os << "cores: " << done << "/" << _cores.size() << " done\n";
    for (unsigned n = 0; n < _cfg.nodes; ++n) {
        os << "node" << n << " ics queues:\n";
        _chips[n]->ics().debugDump(os);
        os << "node" << n << " busy L2 lines:\n";
        for (unsigned b = 0; b < 8; ++b)
            _chips[n]->l2(b).debugDump(os);
        os << "node" << n << " protocol engines:\n";
        _chips[n]->homeEngine().debugDump(os);
        _chips[n]->remoteEngine().debugDump(os);
    }
    if (_injector) {
        os << "faults: fired=" << _injector->counters.fired;
        for (const FiredFault &f : _injector->fired())
            os << "\n  " << faultKindName(f.kind) << " @" << f.at
               << "ps node" << f.node << " " << f.site;
        os << "\n";
    }
    return os.str();
}

RunResult
PiranhaSystem::run(Workload &wl, std::uint64_t work_per_cpu,
                   Tick max_time, const std::function<bool()> &should_abort)
{
    unsigned ncpus = totalCpus();
    CoreParams cp = _cfg.core;
    cp.ilp = wl.ilp();
    // The OOO parameters live in the cores, so each run builds them
    // with its workload's ILP. The stat tree holds raw pointers into
    // the cores: a previous run's are detached before they go.
    for (auto &core : _cores)
        core->unregStats(_stats);
    _cores.clear();
    for (unsigned n = 0; n < _cfg.nodes; ++n) {
        for (unsigned c = 0; c < _cfg.cpusPerChip; ++c) {
            _cores.push_back(std::make_unique<Core>(
                chipQueue(n), strFormat("node%u.cpu%u", n, c),
                _chips[n]->clock(), _chips[n]->dl1(c),
                _chips[n]->il1(c), cp));
            _cores.back()->regStats(_stats);
        }
    }
    _streams.clear();
    for (unsigned i = 0; i < ncpus; ++i) {
        NodeId node = static_cast<NodeId>(i / _cfg.cpusPerChip);
        _streams.push_back(wl.makeStream(chipQueue(node), i, ncpus,
                                         work_per_cpu, node, _amap));
        _cores[i]->start(_streams[i].get());
    }

    Tick deadline = chipQueue(0).curTick() + max_time;
    std::uint64_t events_before = totalEventsExecuted();
    // L1s persist across run() calls, so their host-side counter is
    // cumulative; report this run's delta.
    std::uint64_t l1_resp_before = 0;
    for (unsigned n = 0; n < _cfg.nodes; ++n) {
        for (unsigned c = 0; c < _cfg.cpusPerChip; ++c) {
            l1_resp_before += _chips[n]->dl1(c).respondEventsScheduled;
            l1_resp_before += _chips[n]->il1(c).respondEventsScheduled;
        }
    }
    prof::reset();
    bool aborted = false;
    std::uint64_t iter = 0;
    // Forward-progress watchdog (host-side: schedules nothing and
    // reads no simulated state until it trips, so it cannot perturb
    // results). Progress = any instruction retiring anywhere; the
    // slowest legitimate gap is a few memory round trips, orders of
    // magnitude under watchdogStallLimit.
    bool wd_tripped = false;
    std::string wd_reason;
    std::string wd_dump;
    unsigned shards_used = 0;
    std::uint64_t parallel_epochs = 0;
    std::vector<double> shard_seconds;
    std::vector<std::map<std::string, double>> shard_profiles;
    if (_parallel) {
        // Sharded run: the engine drives every chip queue to global
        // quiescence (the drainStop semantics, always), polling the
        // abort hook once per epoch barrier. The instruction-stall
        // watchdog needs cross-thread stat reads and is not available
        // here; the drained-with-unfinished-cores detection below
        // covers the wedged-protocol case it exists for.
        ParallelRunOutcome po = runShards(deadline, should_abort);
        shards_used = _shards;
        parallel_epochs = po.epochs;
        shard_seconds = std::move(po.shardSeconds);
        shard_profiles = std::move(po.shardProfiles);
        aborted = po.deadlineHit || po.abortRequested;
        if (po.deadlineHit) {
            warn("run hit max_time before completing work");
            wd_dump = diagnosticDump("max_time");
        } else if (!po.abortRequested) {
            bool all_done = true;
            for (const auto &core : _cores)
                if (!core->done()) {
                    all_done = false;
                    break;
                }
            if (!all_done) {
                wd_tripped = true;
                wd_reason =
                    "event queue drained with unfinished cores";
            }
        }
    } else {
        Tick wd_last_tick = _eq.curTick();
        double wd_last_instrs = -1.0;
        // Completion check: scanning every core per event is O(ncpus)
        // on the hottest loop in the simulator. Start each scan at the
        // core that most recently reported not-done — it almost always
        // still isn't, making the check O(1) amortized with the same
        // stop point (the loop still exits on the first iteration
        // where all cores are done).
        std::size_t watch = 0;
        for (;;) {
            PIR_PROF(Kernel);
            bool all_done = true;
            for (std::size_t i = 0; i < ncpus; ++i) {
                std::size_t j = watch + i < ncpus ? watch + i
                                                  : watch + i - ncpus;
                if (!_cores[j]->done()) {
                    watch = j;
                    all_done = false;
                    break;
                }
            }
            // drainStop: after the cores finish, keep stepping until
            // the queue empties (in-flight writebacks, net
            // deliveries), which is the unique fixpoint the parallel
            // engine also stops at.
            if (all_done && (!_cfg.drainStop || _eq.pending() == 0))
                break;
            if (_eq.curTick() >= deadline) {
                warn("run hit max_time before completing work");
                wd_dump = diagnosticDump("max_time");
                aborted = true;
                break;
            }
            // A machine check is a clean detected-error teardown: stop
            // at the next event boundary with the cause recorded.
            if (_injector && _injector->machineCheck()) {
                aborted = true;
                break;
            }
            ++iter;
            // Poll the host-side abort hook sparsely; a syscall-backed
            // check (clock read) every event would dominate runtime.
            if (should_abort && (iter & 0xFFF) == 0 && should_abort()) {
                aborted = true;
                break;
            }
            if ((iter & 0xFFF) == 0) {
                double instrs = 0;
                for (const auto &core : _cores)
                    instrs += core->statInstrs.value();
                if (instrs != wd_last_instrs) {
                    wd_last_instrs = instrs;
                    wd_last_tick = _eq.curTick();
                } else if (_eq.curTick() - wd_last_tick >=
                           watchdogStallLimit) {
                    wd_tripped = true;
                    wd_reason = strFormat(
                        "no instruction retired for %llu ps",
                        static_cast<unsigned long long>(
                            _eq.curTick() - wd_last_tick));
                    break;
                }
            }
            if (!_eq.step()) {
                // The queue drained with cores unfinished: nothing can
                // ever advance architectural state again. A lost
                // message (fault injection or protocol bug) wedged the
                // system.
                wd_tripped = true;
                wd_reason = "event queue drained with unfinished cores";
                break;
            }
        }
    }
    if (wd_tripped) {
        aborted = true;
        wd_dump = diagnosticDump("watchdog: " + wd_reason);
        warn("forward-progress watchdog tripped: %s",
             wd_reason.c_str());
    }
    // Fold the per-node network partials into the registered stats in
    // node order (identical fold order under both engines, so the
    // floating-point sums match bit for bit).
    if (_net)
        _net->mergeShardedStats();

    RunResult r;
    r.config = _cfg.name;
    r.workload = wl.name();
    r.engineFallback =
        _cfg.engine == EngineKind::Parallel && !_parallel;
    r.aborted = aborted;
    r.watchdogTripped = wd_tripped;
    r.watchdogReason = std::move(wd_reason);
    r.watchdogDump = std::move(wd_dump);
    if (_injector) {
        r.faults = _injector->counters;
        r.firedFaults = _injector->fired();
        r.machineCheck = _injector->machineCheck();
        r.machineCheckReason = _injector->machineCheckReason();
    }
    r.eventsExecuted = totalEventsExecuted() - events_before;
    r.shardsUsed = shards_used;
    r.parallelEpochs = parallel_epochs;
    r.shardHostSeconds = std::move(shard_seconds);
    double busy = 0, hit = 0, miss = 0, idle = 0;
    for (unsigned i = 0; i < ncpus; ++i) {
        r.execTime = std::max(r.execTime, _cores[i]->accountedTime());
        r.work += _streams[i]->workDone();
        busy += _cores[i]->statBusy.value();
        hit += _cores[i]->statL2HitStall.value();
        miss += _cores[i]->statL2MissStall.value();
        idle += _cores[i]->statIdle.value();
        r.instructions += _cores[i]->statInstrs.value();
        r.fastInlineHits += _cores[i]->inlineHits;
        r.fastEventedHits += _cores[i]->eventedHits;
    }
    for (unsigned n = 0; n < _cfg.nodes; ++n) {
        for (unsigned c = 0; c < _cfg.cpusPerChip; ++c) {
            r.l1RespondEvents += _chips[n]->dl1(c).respondEventsScheduled;
            r.l1RespondEvents += _chips[n]->il1(c).respondEventsScheduled;
        }
    }
    r.l1RespondEvents -= l1_resp_before;
    r.eventsEquivalent = r.eventsExecuted + r.fastInlineHits;
    r.profile = prof::snapshot();
    // The workers' thread_local profiler accumulations, folded into
    // the run's breakdown (zones still sum to measured host time).
    for (const auto &sp : shard_profiles)
        for (const auto &[zone, secs] : sp)
            r.profile[zone] += secs;
    double total = busy + hit + miss + idle;
    if (total > 0) {
        r.busyFrac = busy / total;
        r.l2HitStallFrac = hit / total;
        r.l2MissStallFrac = miss / total;
        r.idleFrac = idle / total;
    }
    double page_hits = 0, page_misses = 0;
    for (auto &chip : _chips) {
        auto mb = chip->missBreakdown();
        r.misses.l2Hit += mb.l2Hit;
        r.misses.l2Fwd += mb.l2Fwd;
        r.misses.memLocal += mb.memLocal;
        r.misses.memRemote += mb.memRemote;
        r.misses.remoteDirty += mb.remoteDirty;
        for (unsigned b = 0; b < 8; ++b) {
            page_hits += chip->mc(b).channel().statPageHits.value();
            page_misses += chip->mc(b).channel().statPageMisses.value();
        }
    }
    if (page_hits + page_misses > 0)
        r.rdramPageHitRate = page_hits / (page_hits + page_misses);
    return r;
}

} // namespace piranha
