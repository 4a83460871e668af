/**
 * @file
 * CPU timing models.
 *
 * InOrderCore models the Piranha core (paper §2.1): single-issue,
 * in-order, eight-stage pipeline, most instructions single-cycle,
 * blocking caches — so every miss stalls the pipeline for its full
 * latency. The same class with an OooParams configuration models the
 * next-generation out-of-order baseline (Table 1: 1 GHz, 4-issue,
 * 64-entry instruction window): wide issue raises the no-miss IPC
 * toward the workload's ILP ceiling, and the instruction window lets
 * the core overlap miss latency with downstream work, modeled as an
 * overlap credit bounded by the window size — a load that completes
 * in L cycles contributes up to overlap*L cycles of credit that
 * subsequent busy time consumes (interval-model style).
 *
 * Execution time and its decomposition (CPU busy / L2-hit-class
 * stall / L2-miss-class stall) are accounted per core and aggregated
 * by the benchmark harness to regenerate the paper's Figure 5/8
 * breakdowns.
 */

#ifndef PIRANHA_CPU_CORE_H
#define PIRANHA_CPU_CORE_H

#include <memory>

#include "cache/l1_cache.h"
#include "cpu/instr_stream.h"
#include "sim/sim_object.h"
#include "stats/stats.h"

namespace piranha {

/** Out-of-order capability of a core (defaults model in-order). */
struct CoreParams
{
    unsigned issueWidth = 1;
    unsigned windowSize = 0;     //!< 0: in-order (no overlap credit)
    WorkloadIlp ilp{};           //!< workload-dependent OOO behavior

    /**
     * Use the zero-event L1-hit fast path (see L1Cache::accessFast).
     * Timing and stats are bit-identical either way — the knob exists
     * so that identity can be verified.
     */
    bool fastPath = true;
};

/** A CPU core driving one dL1/iL1 pair. */
class Core : public SimObject, public MemRspClient
{
  public:
    Core(EventQueue &eq, std::string name, const Clock &clk,
         L1Cache &dl1, L1Cache &il1, const CoreParams &params);

    /** Attach the instruction stream and begin execution. */
    void start(InstrStream *stream);

    /** True once the stream returned Done. */
    bool done() const { return _done; }

    /** Accounted execution time (ticks) excluding hidden latency. */
    Tick accountedTime() const { return _accounted; }

    /** Completed work units reported by the stream. */
    std::uint64_t workDone() const
    {
        return _stream ? _stream->workDone() : 0;
    }

    void regStats(StatGroup &parent);
    /** Detach this core's stat group before the core is destroyed. */
    void unregStats(StatGroup &parent) { parent.removeChild(&_stats); }

    // Host-side fast-path instrumentation. Deliberately NOT Scalars:
    // these differ between fast and slow modes by design and must not
    // enter the bit-identical StatGroup tree.
    std::uint64_t inlineHits = 0;  //!< hits completed with 0 events
    std::uint64_t eventedHits = 0; //!< fast hits via _fastRspEvent

    // Accounted tick breakdown (paper Fig. 5 categories).
    Scalar statBusy;        //!< CPU busy (issue-limited) time
    Scalar statL2HitStall;  //!< stalls served by L2 or on-chip L1s
    Scalar statL2MissStall; //!< stalls served by (any) memory
    Scalar statIdle;        //!< workload-declared idle (I/O waits)
    Scalar statInstrs;
    Scalar statLoads;
    Scalar statStores;
    Scalar statIfetches;

  private:
    /** Bytes per instruction fetch (the Alpha instruction size). */
    static constexpr unsigned ifetchBytes = 4;

    // fetchThenExecute/execute/issue/finishAccess return true when
    // the op has completed and the caller should pull the next op at
    // the current tick (the advanced tick of a zero-event fast hit).
    bool fetchThenExecute(StreamOp op);
    bool execute(StreamOp op);
    /** Issue the op's one L1 access, fast path first. */
    bool issue(L1Cache &l1, const MemReq &req, const StreamOp &op,
               bool ifetch);
    /** Account the pending access's latency and finish its op. */
    bool finishAccess(const MemRsp &rsp);
    void chargeStall(Tick stall, FillSource source);
    void nextOp();
    /** Fires at the hit-latency tick of an Evented fast hit. */
    void fastRspDone() { memRsp(_fastRsp); }
    /** L1 completion for the single outstanding access. */
    void memRsp(const MemRsp &rsp) override;
    double busyCyclesPerInstr() const;

    const Clock &_clk;
    L1Cache &_dl1;
    L1Cache &_il1;
    CoreParams _p;
    InstrStream *_stream = nullptr;

    bool _done = false;
    Addr _lastFetchLine = ~Addr(0);
    Tick _accounted = 0;
    double _credit = 0;      //!< overlap credit in ticks
    double _creditCap = 0;   //!< window-derived cap in ticks
    double _busyCarry = 0;   //!< sub-tick busy remainder carried
                             //!< across compute blocks
    // In-order core: exactly one L1 access outstanding, tracked here
    // instead of in a per-access closure.
    StreamOp _pendingOp{};
    Tick _pendingIssued = 0;
    bool _pendingIfetch = false;
    MemRsp _fastRsp{};
    MemberEvent<Core, &Core::nextOp> _nextOpEvent{this, "core.nextOp"};
    /** Completion pipeline stage of an Evented fast hit: replaces the
     *  L1's pooled RespondEvent 1:1 (same tick, same seq position). */
    MemberEvent<Core, &Core::fastRspDone> _fastRspEvent{this,
                                                       "core.memDone"};
    StatGroup _stats;
};

} // namespace piranha

#endif // PIRANHA_CPU_CORE_H
