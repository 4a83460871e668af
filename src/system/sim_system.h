/**
 * @file
 * Whole-system simulation driver: builds a configured multi-node
 * Piranha (or baseline) system, attaches a workload to every CPU, and
 * runs a fixed amount of work, reporting execution time with the
 * paper's breakdown. This is the primary entry point of the public
 * API (re-exported by core/piranha.h).
 */

#ifndef PIRANHA_SYSTEM_SIM_SYSTEM_H
#define PIRANHA_SYSTEM_SIM_SYSTEM_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "system/chip.h"
#include "system/config.h"
#include "workload/workload.h"

namespace piranha {

struct ParallelRunOutcome;

/** Result of one fixed-work run. */
struct RunResult
{
    std::string config;
    std::string workload;

    Tick execTime = 0;      //!< max accounted time over CPUs
    std::uint64_t work = 0; //!< total work units completed

    // Execution-time fractions (paper Fig. 5 decomposition).
    double busyFrac = 0;
    double l2HitStallFrac = 0;
    double l2MissStallFrac = 0;
    double idleFrac = 0;

    // L1-miss service breakdown (paper Fig. 6b).
    PiranhaChip::MissBreakdown misses;

    double instructions = 0;
    double rdramPageHitRate = 0;

    /** Kernel events executed by this run (deterministic). */
    std::uint64_t eventsExecuted = 0;

    /**
     * eventsExecuted + fastInlineHits: the engine-invariant event
     * count. The fast path's inline tier trades events 1:1 for inline
     * completions, and the parallel engine's epoch horizon shifts that
     * split (an L1 hit near an epoch boundary falls back to the
     * evented tier), so eventsExecuted alone is only comparable
     * between runs of the same engine/shard count — this sum is
     * comparable across all of them (DESIGN.md §13).
     */
    std::uint64_t eventsEquivalent = 0;

    // Fast-path instrumentation (host-side; never part of the
    // bit-identity stat comparison — a slow-mode run reports zeros
    // for the first three while producing identical simulation stats).
    std::uint64_t fastInlineHits = 0;  //!< L1 hits with 0 events
    std::uint64_t fastEventedHits = 0; //!< L1 hits via core.memDone
    std::uint64_t l1FastHits = 0;      //!< hits taken by accessFast
    std::uint64_t l1RespondEvents = 0; //!< slow-path respond events

    /**
     * Host-time breakdown by component zone (seconds), captured when
     * the build has PIRANHA_PROFILE=ON; empty otherwise. Host-side
     * measurement: excluded from identity comparisons.
     */
    std::map<std::string, double> profile;

    // Parallel-engine instrumentation (host-side, excluded from
    // identity comparisons; zeros/empty under the serial engine).
    unsigned shardsUsed = 0;             //!< worker threads driven
    std::uint64_t parallelEpochs = 0;    //!< barrier windows executed
    std::vector<double> shardHostSeconds; //!< per-worker host seconds

    /**
     * The config asked for the parallel engine but the system forced
     * the serial fallback (fault plan or shared tracer attached).
     * Recorded here — and as `engine_fallback` in the sweep/campaign
     * JSON reports — so report consumers can detect it instead of
     * having to scrape the stderr warning.
     */
    bool engineFallback = false;

    /** True when the run was stopped by an abort check or max_time. */
    bool aborted = false;

    // ------------------------------------------------------------------
    // Robustness instrumentation (src/fault/). Host-side like the
    // fast-path counters: never part of the bit-identity stat set; a
    // plain run (or a zero-fault plan) reports all-zero/false here
    // while producing an identical stat tree.

    /** Snapshot of the injector's counters (zeros on plain runs). */
    FaultCounters faults;

    /** Faults that actually fired (empty on plain runs). */
    std::vector<FiredFault> firedFaults;

    /** A detected unrecoverable error stopped the run. */
    bool machineCheck = false;
    std::string machineCheckReason;

    /**
     * The forward-progress watchdog stopped the run: no instruction
     * retired for 2 ms of simulated time (or the event queue drained)
     * while cores still had work.
     */
    bool watchdogTripped = false;
    std::string watchdogReason;

    /**
     * Diagnostic state dump captured when the watchdog trips or
     * max_time hits: outstanding TSRF entries, busy L2 lines, ICS
     * queue depths, per-core completion (DESIGN.md §9).
     */
    std::string watchdogDump;

    /** Work per second of simulated time (throughput). */
    double
    throughput() const
    {
        return execTime
                   ? static_cast<double>(work) /
                         (static_cast<double>(execTime) * 1e-12)
                   : 0.0;
    }
};

/** A complete simulated system with CPUs and a workload harness. */
class PiranhaSystem
{
  public:
    explicit PiranhaSystem(const SystemConfig &cfg);
    ~PiranhaSystem();

    /**
     * Run @p work_per_cpu work units on every CPU of the system and
     * return the measured result. @p max_time bounds runaway runs.
     *
     * @p should_abort, when provided, is polled every few thousand
     * events; returning true stops the run early with
     * RunResult::aborted set. The sweep harness uses this for
     * host-side wall-clock timeouts; the hook costs nothing when
     * empty and does not perturb simulated behaviour before it fires.
     */
    RunResult run(Workload &wl, std::uint64_t work_per_cpu,
                  Tick max_time = 100 * 1000 * ticksPerUs,
                  const std::function<bool()> &should_abort = {});

    PiranhaChip &chip(unsigned n) { return *_chips[n]; }
    unsigned totalCpus() const { return _cfg.nodes * _cfg.cpusPerChip; }
    EventQueue &eventQueue() { return _eq; }
    StatGroup &stats() { return _stats; }
    const AddressMap &addressMap() const { return _amap; }

    /** Chip @p n's event queue: its own under the parallel engine,
     *  the one shared queue under the serial engine. */
    EventQueue &chipQueue(unsigned n)
    { return _parallel ? *_chipQueues[n] : _eq; }
    const EventQueue &chipQueue(unsigned n) const
    { return _parallel ? *_chipQueues[n] : _eq; }

    /** Latest tick any chip queue has reached. */
    Tick now() const;

    /**
     * Run the events already scheduled (by callers driving the L1
     * ports directly, say) until every queue drains or nothing
     * earlier than @p deadline remains; true when everything drained.
     * Serial: EventQueue::run. Parallel: one sharded-engine pass.
     */
    bool drain(Tick deadline = ~Tick(0));

    /** The run's fault injector; null unless the config carries an
     *  enabled plan (tests inspect counters mid-run through this). */
    FaultInjector *injector() { return _injector.get(); }

    /** Diagnostic state dump (watchdog / max_time; DESIGN.md §9). */
    std::string diagnosticDump(const std::string &why) const;

    /** True when runs use the sharded parallel engine (the config
     *  asked for it and nothing forced the serial fallback). */
    bool parallelEngine() const { return _parallel; }

    /** Events executed across all queues (one queue when serial). */
    std::uint64_t totalEventsExecuted() const;

  private:
    /** One sharded-engine pass over every chip queue. */
    ParallelRunOutcome runShards(Tick deadline,
                                 const std::function<bool()> &should_abort);

    SystemConfig _cfg;
    EventQueue _eq;
    bool _parallel = false;
    unsigned _shards = 1;
    std::vector<unsigned> _shardOf;
    std::vector<std::unique_ptr<EventQueue>> _chipQueues;
    AddressMap _amap;
    std::unique_ptr<Network> _net;
    std::vector<std::unique_ptr<PiranhaChip>> _chips;
    std::vector<std::unique_ptr<Core>> _cores;
    std::vector<std::unique_ptr<InstrStream>> _streams;
    std::unique_ptr<FaultInjector> _injector;
    StatGroup _stats{"system"};
};

} // namespace piranha

#endif // PIRANHA_SYSTEM_SIM_SYSTEM_H
