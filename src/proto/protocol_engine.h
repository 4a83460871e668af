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
    /** Concurrent transactions per engine (paper §2.5.1). */
    static constexpr unsigned tsrfEntries = 16;

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

    /**
     * The packet of @p type that thread @p t sends to @p dst: its
     * line, requester and transaction id, and its data register when
     * the type carries data. Only a RepX is marked exclusive.
     */
    NetPacket packet(const TsrfEntry &t, NetMsgType type,
                     NodeId dst) const;
    /** Emit a packet (source filled in). */
    void sendNet(NetPacket pkt);
    /** Acknowledge write-back @p wb; @p expect_fwd tells its sender
     *  that a forwarded request for the line is inbound. */
    void sendWbAck(const NetPacket &wb, bool expect_fwd);
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
        bool fwdServiced = false;
        bool releaseAfterFwd = false;
    };
    LineTable<WbBuf> wbBuffer;

    /** Hold @p data in the write-back buffer for @p addr's line until
     *  the home acknowledges; the forward marks are left as they
     *  are. Returns the entry. */
    WbBuf &stashWriteBack(Addr addr, const LineData &data);
    /** Serve forwarded request @p t from the write-back buffer: copy
     *  the line into t.data and release the entry once both the
     *  forward and the home's acknowledgement are done. */
    void takeFromWbBuffer(TsrfEntry &t);

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

    /** Engine->L2 message of @p type for @p t's line and transaction,
     *  to the line's bank. */
    IcsMsg toL2(const TsrfEntry &t, IcsMsgType type) const;

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
     *  to run. */
    std::uint64_t _readyMask = 0;
    static_assert(tsrfEntries <= 64, "one ready-mask bit per TSRF entry");
    std::size_t _rrNext = 0;
    EventPool<StepEvent> _stepEvents;
    StatGroup _stats;
};

/** Build the home-engine microcode (home_program.cc). */
void installHomeProgram(ProtocolEngine &pe);
/** Build the remote-engine microcode (remote_program.cc). */
void installRemoteProgram(ProtocolEngine &pe);

/**
 * Emit `<p>_acks`, the InvalAck gather both programs end an eager
 * exclusive grant with: receive until t.acksLeft reaches zero, then
 * halt at `<p>_done`.
 */
void emitAckGather(MicroAssembler &a, const std::string &p);

} // namespace piranha

#endif // PIRANHA_PROTO_PROTOCOL_ENGINE_H
