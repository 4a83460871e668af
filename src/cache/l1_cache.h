/**
 * @file
 * First-level cache module (paper §2.1).
 *
 * 64 KB, two-way set-associative, 64-byte lines, virtually indexed /
 * physically tagged, single-cycle hit latency, blocking (one
 * outstanding miss). Data caches include a store buffer; instruction
 * caches are read-only and, unlike other Alpha implementations, are
 * kept coherent by hardware (they share this design).
 *
 * A 2-bit MESI state is kept per line. The L1 never snoops: all
 * coherence actions arrive as explicit messages from the owning L2
 * bank through the intra-chip switch, exploiting the switch's
 * per-(source, destination, lane) ordering:
 *
 *  - Inval: invalidate without acknowledgement.
 *  - FwdGetS/FwdGetX: this L1 is the on-chip owner; supply the line
 *    directly to a peer L1 (PeerFill*) and notify the L2 (FwdDone).
 *
 * Replacement protocol: the L1 keeps a victim fully functional in the
 * tag array until the reply to the displacing request arrives; the
 * reply piggybacks the L2's write-back decision (owner L1s write back
 * even clean data — the L2 behaves as a victim cache). Because the L2
 * updates its duplicate tags at its serialization point and the ICS
 * preserves (src,dst,lane) order, no request/forward/invalidate race
 * can observe an inconsistent victim.
 */

#ifndef PIRANHA_CACHE_L1_CACHE_H
#define PIRANHA_CACHE_L1_CACHE_H

#include <functional>

#include "cache/tag_array.h"
#include "ics/intra_chip_switch.h"
#include "mem/coherence_types.h"
#include "sim/ring_buffer.h"
#include "sim/sim_object.h"
#include "stats/stats.h"
#include "system/chip_context.h"

namespace piranha {

/**
 * Completion target of one CPU-side access: either a long-lived
 * MemRspClient (the Core — allocation-free) or a MemRspFn closure
 * (tests, litmus drivers). At most one of the two is set.
 */
struct RspHandler
{
    MemRspClient *client = nullptr;
    MemRspFn fn;

    RspHandler() = default;
    RspHandler(MemRspClient *c) : client(c) {}
    RspHandler(MemRspFn f) : fn(std::move(f)) {}
    RspHandler(std::nullptr_t) {}

    explicit operator bool() const
    {
        return client != nullptr || static_cast<bool>(fn);
    }

    void
    reset()
    {
        client = nullptr;
        fn = nullptr;
    }

    void
    operator()(const MemRsp &r)
    {
        if (client)
            client->memRsp(r);
        else
            fn(r);
    }
};

/** One L1 line: MESI state + payload. */
struct L1Line : TagLine
{
    L1State state = L1State::I;
    LineData data;
    /**
     * Tag or data parity failed (fault injection). The line is
     * treated as untrustworthy: clean copies are refetched on next
     * use, a dirty copy raises a machine check (its only up-to-date
     * data is gone). Always false without an attached injector.
     */
    bool parityBad = false;
};

/** Configuration of one L1 cache. */
struct L1Params
{
    std::size_t sizeBytes = 64 * 1024;
    unsigned assoc = 2;
};

/** A first-level instruction or data cache. */
class L1Cache : public SimObject, public IcsClient
{
  public:
    /** Hit latency in cycles (fast-path callers model the delay). */
    static constexpr unsigned hitCycles = 1;

    /**
     * @param l1_id chip-wide L1 identifier (2*cpu for dL1, 2*cpu+1
     *              for iL1), which is also its ICS port; used by the
     *              L2 duplicate tags.
     * @param bank_port maps a physical address to the ICS port of the
     *              L2 bank that owns it.
     */
    L1Cache(EventQueue &eq, std::string name, const ChipContext &ctx,
            const L1Params &params, const Clock &clk,
            IntraChipSwitch &ics, int l1_id,
            std::function<int(Addr)> bank_port);

    /**
     * Present a CPU request. The callback fires when the access
     * completes; stores complete when they enter the store buffer.
     * Requests are queued internally if resources are busy, so this
     * may always be called — but an in-order CPU should wait for the
     * callback before issuing its next access.
     */
    void access(const MemReq &req, MemRspFn rsp);

    /** Same, completing through a long-lived client (no allocation). */
    void access(const MemReq &req, MemRspClient *client);

    /**
     * Fast-path probe: if @p req is a hit that the slow path would
     * complete synchronously (tag hit, store-buffer space, SB-covered
     * load), perform the cache-side effects now — stats, trace,
     * store-buffer insert, line update — write the response into
     * @p out and return true WITHOUT scheduling anything. The caller
     * (Core) owns the hit-latency delay: it either schedules its own
     * completion event or, when the event queue is provably quiet,
     * advances the clock and completes inline. Returns false (no side
     * effects) for anything the slow path would queue or miss on;
     * callers then use access() unchanged.
     *
     * A fast store that arms the drain must be followed by
     * commitFastDrain() once the caller has fixed its completion
     * position, so the drain files after the (real or virtual)
     * response event — the slow path's respond-then-drain order.
     */
    bool accessFast(const MemReq &req, MemRsp &out);

    /** Schedule the drain pass deferred by a fast store (see above). */
    void
    commitFastDrain()
    {
        if (_fastDrainPending) {
            _fastDrainPending = false;
            scheduleDrain();
        }
    }

    /** Hits completed through accessFast (not a Scalar: host-side
     *  instrumentation must stay out of the bit-identical stat set). */
    std::uint64_t fastHits = 0;
    /** respond() events scheduled (slow-path completions). */
    std::uint64_t respondEventsScheduled = 0;

    void icsDeliver(const IcsMsg &msg) override;

    /** Current MESI state of the line containing @p addr. */
    L1State lineState(Addr addr) const;

    int l1Id() const { return _l1Id; }

    /** Valid lines currently in the array (fault-site selection). */
    unsigned faultValidLines() const { return _tags.validCount(); }

    /**
     * Mark the @p nth valid line (walk order) parity-bad; when
     * @p corrupt_data, additionally flip data bit @p bit (0..511).
     * Returns the line's MESI state, or I when @p nth out of range.
     */
    L1State faultMarkParity(unsigned nth, unsigned bit,
                            bool corrupt_data);

    void regStats(StatGroup &parent);

    Scalar statHits;
    Scalar statMisses;
    Scalar statSbForwards;
    Scalar statInvalsReceived;
    Scalar statFwdsServiced;
    Scalar statWritebacks;
    Scalar statUpgrades;

  private:
    /** Store-buffer entries; a store finding it full waits. */
    static constexpr unsigned storeBufferDepth = 8;

    struct Mshr
    {
        bool valid = false;
        MemReq req;
        RspHandler rsp;        //!< empty for store-buffer drains
        Addr lineAddr = 0;
        bool isUpgrade = false;
        bool haveVictim = false;
        Addr victimAddr = 0;
    };

    struct SbEntry
    {
        Addr addr;
        std::uint8_t size;
        std::uint64_t value;
    };

    struct PendingCpu
    {
        MemReq req;
        RspHandler rsp;
    };

    /** Carries one delayed CPU completion (handler + response). */
    struct RespondEvent final : public Event
    {
        explicit RespondEvent(L1Cache *c) : cache(c) {}
        void process() override;
        const char *eventName() const override { return "l1.respond"; }
        L1Cache *cache;
        RspHandler handler;
        MemRsp rsp;
    };

    /**
     * One scheduled store-buffer drain pass. Pooled: the drain loop's
     * tail reschedule is deliberately unguarded (tryStart may already
     * have scheduled a pass for a store it just accepted), so two
     * passes can legitimately be in flight at once.
     */
    struct DrainEvent final : public Event
    {
        explicit DrainEvent(L1Cache *c) : cache(c) {}
        void process() override;
        const char *eventName() const override { return "l1.drain"; }
        L1Cache *cache;
    };

    void respond(RspHandler &rsp, std::uint64_t value, FillSource src,
                 unsigned extra_cycles = 0);
    void tryStart();
    void startAccess(const MemReq &req, RspHandler rsp);
    void issueMiss(const MemReq &req, RspHandler rsp, bool is_upgrade);
    /**
     * Parity recovery: refetch a clean parity-bad line by issuing a
     * miss that names the line as its own victim (the L2 clears the
     * ownership records at its serialization point without installing
     * the untrusted data). A dirty line instead raises a machine
     * check. Returns false when the MSHR is busy (caller waits) or a
     * machine check was raised; @p rsp is consumed only on success.
     */
    bool startParityRecovery(const MemReq &req, RspHandler &rsp,
                             L1Line &bad);
    void completeMiss(const IcsMsg &msg);
    void drainStoreBuffer();
    void scheduleDrain();
    void applyStore(L1Line &line, const SbEntry &e);
    std::uint64_t composeLoad(const L1Line &line, Addr addr,
                              unsigned size) const;
    bool sbCovers(Addr addr, unsigned size, std::uint64_t &value) const;
    void sendToBank(IcsMsg msg, Addr addr);

    const ChipContext _ctx;
    const Clock &_clk;
    IntraChipSwitch &_ics;
    int _l1Id;
    std::function<int(Addr)> _bankPort;

    TagArray<L1Line> _tags;
    Mshr _mshr;
    RingBuffer<SbEntry> _sb;
    RingBuffer<PendingCpu> _cpuQueue;
    /** Set when a drain pass is scheduled; cleared when one begins
     *  executing (so the pass itself reschedules without a guard). */
    bool _drainScheduled = false;
    /** Fast store armed the drain; scheduled by commitFastDrain(). */
    bool _fastDrainPending = false;
    EventPool<DrainEvent> _drainEvents;
    /** One respond in flight is the in-order-CPU steady state; test
     *  drivers that pipeline accesses overflow into pooled events. */
    EventPool<RespondEvent> _respondEvents;
    StatGroup _stats;
};

} // namespace piranha

#endif // PIRANHA_CACHE_L1_CACHE_H
