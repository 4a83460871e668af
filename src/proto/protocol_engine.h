/**
 * @file
 * Microprogrammable protocol engine (paper §2.5.1).
 *
 * The home engine exports memory whose home is the local node; the
 * remote engine imports memory whose home is remote. Both are
 * instances of this class, differing only in the microcode they
 * execute. The engine has three decoupled stages: an input controller
 * that receives messages from the local node (via the ICS) or the
 * external interconnect, a microcode-controlled execution unit, and
 * an output controller. Execution is interleaved across threads at
 * one instruction per engine cycle (the even/odd thread interleave of
 * the hardware is modeled as round-robin over ready threads at the
 * same throughput).
 *
 * Transactions are serialized per line at the engine: a message for a
 * line with an active thread is either matched to that thread (if it
 * is waiting and its RECEIVE mask accepts the type) or queued behind
 * it. This queueing implements the paper's no-NAK guarantees: early
 * forwarded requests simply wait until the owner's outstanding
 * transaction (fill or write-back) completes.
 */

#ifndef PIRANHA_PROTO_PROTOCOL_ENGINE_H
#define PIRANHA_PROTO_PROTOCOL_ENGINE_H

#include <functional>

#include "ics/intra_chip_switch.h"
#include "mem/mem_ctrl.h"
#include "proto/microcode.h"
#include "proto/tsrf.h"
#include "sim/line_table.h"
#include "sim/ring_buffer.h"
#include "sim/sim_object.h"
#include "stats/stats.h"
#include "system/address_map.h"
#include "system/chip_context.h"

namespace piranha {

/** Engine configuration and environment bindings. */
struct EngineConfig
{
    unsigned tsrfEntries = 16; //!< at most 64
    AddressMap amap;
    unsigned cmiFanout = 4; //!< max CMI messages per invalidation set

    /** Inject a packet into the output queue / interconnect. */
    std::function<void(NetPacket &&)> netOut;
    /** Memory controller owning @p addr (home-side dir/mem writes). */
    std::function<MemCtrl *(Addr)> mcFor;
};

/** A home or remote protocol engine. */
class ProtocolEngine : public SimObject, public IcsClient
{
  public:
    ProtocolEngine(EventQueue &eq, std::string name,
                   const ChipContext &ctx, const EngineConfig &cfg,
                   const Clock &clk, IntraChipSwitch &ics, int my_port);

    /**
     * Install the microcode image plus the dispatch tables mapping
     * spawning message types to entry labels.
     */
    void installProgram(MicroProgram prog,
                        std::map<NetMsgType, std::string> net_entries,
                        std::map<PeOp, std::string> local_entries);

    /** Input from the external interconnect. */
    void deliverNet(const NetPacket &pkt);

    /** Input from the local node. */
    void icsDeliver(const IcsMsg &msg) override;

    // ---- Context operations invoked by microcode actions ----

    /** Emit a packet (source filled in). */
    void sendNet(NetPacket pkt);
    /** Deliver a PeData grant to the owning L2 bank. */
    void sendPeData(TsrfEntry &t, bool has_data, bool exclusive,
                    FillSource source);
    /** Ask the local L2 for data/dir (PeReadLocal). */
    void sendPeReadLocal(TsrfEntry &t, PeLocalMode mode,
                         bool hold_line = false);
    /** Release a pending entry held by a prior PeReadLocal. */
    void sendPeComplete(TsrfEntry &t);
    /** Ask the local L2 to invalidate local copies. */
    void sendPeInvalLocal(TsrfEntry &t);
    /** Posted memory/directory write at the home. */
    void memWrite(Addr addr, const LineData *data,
                  const std::uint64_t *dir);
    /** Split @p t's cmiTargets into at most cmiFanout CMI chains. */
    void planCmi(TsrfEntry &t);
    /** Emit the next planned CMI chain; true if one was sent. */
    bool sendNextChain(TsrfEntry &t);

    NodeId node() const { return _ctx.node; }
    const AddressMap &amap() const { return _cfg.amap; }
    FaultState *faults() const { return _ctx.faults; }
    FaultInjector *injector() const { return _ctx.injector; }

    /** Write-back buffer: data held until the home acknowledges.
     *  Keyed by line number; do not hold a WbBuf reference across an
     *  insert for another line (open-addressed table may rehash). */
    struct WbBuf
    {
        LineData data;
        bool dirty = false;
        bool fwdServiced = false;
        bool releaseAfterFwd = false;
    };
    LineTable<WbBuf> wbBuffer;

    void regStats(StatGroup &parent);

    Scalar statThreads;
    Scalar statInstrs;
    Scalar statQueuedMsgs;
    Scalar statTsrfFull;
    Histogram statOccupancy{100.0, 64}; //!< thread lifetime (ns)

    /** True if a transaction for @p addr is active at this engine. */
    bool
    hasActiveTransaction(Addr addr) const
    {
        return _active.contains(lineNum(addr));
    }

    /** Test support. */
    bool idle() const;

    /** Diagnostic dump of TSRF and queue state. */
    void debugDump(std::ostream &os) const;
    const MicroProgram &program() const { return _prog; }

  private:
    struct QMsg
    {
        bool isNet = false;
        NetPacket net;
        IcsMsg local;
    };

    /**
     * One scheduled step() occurrence. Pooled (not a single member
     * event) because a wake() raised from inside executeOne() can put
     * a second step in flight next to the end-of-step reschedule —
     * the legacy closure kernel allowed that, and bit-identical
     * replay requires keeping each schedule call distinct.
     */
    struct StepEvent final : public Event
    {
        explicit StepEvent(ProtocolEngine *e) : engine(e) {}
        void process() override;
        const char *eventName() const override { return "pe.step"; }
        ProtocolEngine *engine;
    };

    void wake();
    void step();
    void scheduleStep(Tick delta);
    void executeOne(TsrfEntry &t);
    void retire(TsrfEntry &t);
    void spawnOrQueue(QMsg &&m);
    void spawn(const QMsg &m);
    TsrfEntry *freeEntry();
    TsrfEntry *activeFor(Addr addr);
    /** RECEIVE: take the first reply queued on @p t's line that its
     *  wait mask accepts; true if one was taken. */
    bool tryConsumeQueued(TsrfEntry &t);
    void resumeWith(TsrfEntry &t, unsigned cc);

    /** @p t's bit in _readyMask. */
    std::uint64_t
    readyBit(const TsrfEntry &t) const
    {
        return std::uint64_t{1} << (&t - _tsrf.data());
    }

    const ChipContext _ctx;
    EngineConfig _cfg;
    const Clock &_clk;
    IntraChipSwitch &_ics;
    int _myPort;

    MicroProgram _prog;
    std::map<NetMsgType, std::uint16_t> _netEntries;
    std::map<PeOp, std::uint16_t> _localEntries;

    std::vector<TsrfEntry> _tsrf;
    LineTable<std::size_t> _active; //!< line -> thread
    LineTable<RingBuffer<QMsg>> _lineQueue;
    RingBuffer<QMsg> _globalQueue;
    bool _stepScheduled = false;
    /** Bit i set when _tsrf[i] is valid and not waiting, i.e. ready
     *  to run (hence the 64-entry TSRF limit). */
    std::uint64_t _readyMask = 0;
    std::size_t _rrNext = 0;
    EventPool<StepEvent> _stepEvents;
    StatGroup _stats;
};

/** Build the home-engine microcode (home_program.cc). */
void installHomeProgram(ProtocolEngine &pe);
/** Build the remote-engine microcode (remote_program.cc). */
void installRemoteProgram(ProtocolEngine &pe);

} // namespace piranha

#endif // PIRANHA_PROTO_PROTOCOL_ENGINE_H
