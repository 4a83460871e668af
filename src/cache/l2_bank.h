/**
 * @file
 * One bank of the shared second-level cache (paper §2.3).
 *
 * The 1 MB L2 is physically partitioned into eight banks, interleaved
 * on the low bits of the line address, each 8-way set-associative
 * with round-robin (least-recently-loaded) replacement. The L2 does
 * NOT maintain inclusion of the L1s: misses that also miss in the L2
 * are filled directly from memory without allocating an L2 line, and
 * the L2 behaves as a large victim cache filled by L1 replacements
 * (even of clean data).
 *
 * Each bank keeps duplicate L1 tag/state for the lines that map to it
 * plus an ownership record: the owner of a line is the L2 (when it
 * holds a valid copy), an L1 in exclusive state, or one of the
 * sharing L1s (the last requester). A replaced L1 line ships its
 * data with the displacing request, and the L2 installs the owner's
 * copy at its serialization point (DESIGN.md §11, item 1).
 * Together with the ICS ordering this removes the need for on-chip
 * invalidation acknowledgements.
 *
 * The bank is the intra-chip coherence serialization point: each line
 * has at most one active transaction; conflicting requests queue in
 * the line's pending entry (paper: "request pending entries"), which
 * comes from a small per-bank pool and is held only while the line
 * has a transaction in flight or requests blocked. Requests that
 * need inter-node action are handed to the home or remote protocol
 * engine; the bank also services engine-initiated local
 * reads/invalidations on behalf of remote nodes.
 */

#ifndef PIRANHA_CACHE_L2_BANK_H
#define PIRANHA_CACHE_L2_BANK_H

#include "cache/tag_array.h"
#include "ics/intra_chip_switch.h"
#include "mem/coherence_types.h"
#include "mem/directory.h"
#include "mem/mem_ctrl.h"
#include "sim/line_table.h"
#include "sim/ring_buffer.h"
#include "sim/sim_object.h"
#include "stats/stats.h"
#include "system/address_map.h"
#include "system/chip_context.h"
#include "system/chip_ports.h"

namespace piranha {

/** One L2 line: payload + dirty-vs-memory flag. */
struct L2Line : TagLine
{
    LineData data;
    bool dirty = false;
    /**
     * Tag or data parity failed (fault injection). Detected on the
     * next read: the clean copy is discarded and refetched from
     * memory. Always false without an attached injector.
     */
    bool parityBad = false;
};

/** Configuration of one L2 bank. */
struct L2Params
{
    std::size_t bankBytes = 128 * 1024;
    unsigned assoc = 8;
    unsigned lookupCycles = 3; //!< tag + duplicate-tag lookup
    /**
     * Cache partial directory interpretation at the L2 (paper §2.3:
     * "this partial information ... allows the L2 controller at home
     * to avoid communicating with the protocol engines for the
     * majority of local L1 requests"). Disable for ablation.
     */
    bool pdirShortcut = true;
};

/** A second-level cache bank with its duplicate-L1-tag directory. */
class L2Bank : public SimObject, public IcsClient
{
  public:
    L2Bank(EventQueue &eq, std::string name, const ChipContext &ctx,
           const L2Params &params, const Clock &clk, IntraChipSwitch &ics,
           int my_port, const AddressMap &amap, MemCtrl &mc);

    void icsDeliver(const IcsMsg &msg) override;

    void regStats(StatGroup &parent);

    /** L1-miss service breakdown (paper Fig. 6b). */
    Scalar statL2Hit;
    Scalar statL2Fwd;
    Scalar statMemLocal;
    Scalar statMemRemote;
    Scalar statRemoteDirty;
    Scalar statWbInstalls;
    Scalar statL2Evictions;
    Scalar statBlockedReqs;
    Scalar statEngineTrips;
    Scalar statPdirShortcut;

    /** An L1 or engine transaction is in flight on the line (such
     *  lines are never chosen as replacement victims). */
    bool lineBusy(Addr addr);

    /**
     * Test support: check the bank's bookkeeping and return a
     * description of the first violation, or an empty string:
     *  - a record's in-L2 bit is set exactly when the tag array holds
     *    the line;
     *  - a line holds a pending entry exactly when it is busy,
     *    peActive or has blocked requests;
     *  - with @p drained, no idle record is left that maybeErase would
     *    have removed. Mid-run one may sit idle between a blocked
     *    request's drain and its retry a cycle later.
     */
    std::string checkInvariants(bool drained = true) const;

    /** Test support: pending entries held now / ever held at once. */
    std::size_t pendingInUse() const { return _pending.inUse(); }
    std::size_t pendingPoolSize() const { return _pending.capacity(); }

    /** Diagnostic dump of busy lines. */
    void debugDump(std::ostream &os) const;

    /**
     * Fault-injection site selection. Eligible lines are valid,
     * clean, and local-homed: a clean local line is backed by current
     * memory, so discard-and-refetch is a sound recovery (dirty or
     * remote-owned L2 parity losses would need protocol machinery the
     * paper does not describe; the injector models those through the
     * L1 dirty-parity machine check instead).
     */
    unsigned faultEligibleLines();

    /** Mark the @p nth eligible line parity-bad; when @p corrupt_data
     *  also flip data bit @p bit. Returns false if out of range. */
    bool faultMarkParity(unsigned nth, unsigned bit, bool corrupt_data);

    /**
     * Hook that stashes an evicted node-exclusive line into the
     * remote engine's write-back buffer synchronously, before the
     * WbExcl message is even in flight: the paper's no-NAK guarantee
     * requires the owner to hold valid data continuously until the
     * home acknowledges, so a forwarded request can never find the
     * node empty-handed.
     */
    void
    setWbBufferHook(std::function<void(Addr, const LineData &)> fn)
    {
        _wbBufferHook = std::move(fn);
    }

  private:
    /** State of one active transaction on a line. */
    struct Txn
    {
        enum Kind : std::uint8_t
        {
            None,
            L1Fwd,    //!< forwarded to owner L1, awaiting FwdDone
            L1Mem,    //!< local memory read in flight
            L1Engine, //!< protocol engine action in flight
            PeRead,   //!< engine-initiated local gather
            PeReadFwd, //!< gather forwarded to owner L1
            PeHeld    //!< replied, held until PeComplete
        } kind = None;

        IcsMsg req;             //!< original request
        // PeRead gather state.
        LineData data;
        bool haveData = false;
        bool gatherDirty = false;
        std::uint64_t dirBits = 0;
        bool haveDir = false;
        bool localPresent = false;
    };

    /**
     * Request pending entry (paper §2.3): the transient state of a
     * line with a transaction in flight or requests blocked behind
     * one. Entries come from a per-bank pool; a line holds one exactly
     * while busy, peActive or blocked is non-empty.
     */
    struct Pending
    {
        Txn txn; //!< L1-request transaction (valid while busy)

        /**
         * Engine-initiated transaction slot (valid while peActive).
         * Kept separate from txn so a protocol engine can
         * read/invalidate local state while an L1 request on the same
         * line is parked waiting for that same engine (avoids
         * L2/engine deadlock; the engine is the inter-node
         * serialization point, so the results it returns reflect the
         * remote op's outcome).
         */
        Txn peTxn;
        RingBuffer<IcsMsg> blocked;
    };

    static constexpr std::uint32_t noPending = ~std::uint32_t{0};

    /**
     * Per-line duplicate-tag record: duplicate L1 tags, ownership and
     * node-level state. One exists for every line with an on-chip copy
     * (L1 or L2), node-level state or a transaction in flight, so it
     * is kept small; the transaction state lives in the line's
     * Pending entry.
     */
    struct Info
    {
        std::uint32_t sharers = 0; //!< bitmask over 16 L1 ids
        int ownerL1 = -1;          //!< owning/last-requester L1
        std::uint32_t pending = noPending; //!< index into _pending

        /** Cached partial directory info for home-local lines. */
        enum PDir : std::uint8_t
        {
            PD_Unknown,
            PD_None,
            PD_Shared,
            PD_Excl
        } pdir = PD_Unknown;

        bool l1Excl = false;    //!< owner holds E/M
        bool nodeExcl = false;  //!< chip may write (remote-homed)
        bool nodeDirty = false; //!< chip data newer than home memory,
                                //!< but no single M copy holds it
        bool busy = false;     //!< an L1-request transaction is active
        bool peActive = false; //!< an engine-initiated op is active
        /** The tag array holds the line. Set and cleared only where
         *  L2 tags are installed or invalidated, so ownership checks
         *  and maybeErase need no way scan. */
        bool inL2 = false;
    };
    static_assert(sizeof(Info) <= 24, "duplicate-tag record grew");

    /**
     * One in-flight bank-pipeline occurrence: a delivered message
     * waiting out the lookup latency, or a blocked request waiting
     * out the one-cycle drain delay. Pooled because several messages
     * can be in the lookup pipeline at once.
     */
    struct MsgEvent final : public Event
    {
        explicit MsgEvent(L2Bank *b) : bank(b) {}
        void process() override;
        const char *eventName() const override { return "l2.msg"; }
        L2Bank *bank;
        IcsMsg msg;
        bool drainRetry = false;
    };

    bool isLocal(Addr addr) const { return _amap.home(addr) == _ctx.node; }

    /** Per-line record lookup (find or create) with a one-entry
     *  cache: handler chains touch the same line several times per
     *  message. Safe because StableLineTable values are
     *  pointer-stable; maybeErase drops the cached entry. */
    Info &
    infoFor(Addr addr)
    {
        Addr line = lineNum(addr);
        if (_lastInfo && _lastInfoLine == line)
            return *_lastInfo;
        Info &i = _info[line];
        _lastInfoLine = line;
        _lastInfo = &i;
        return i;
    }

    /** Like infoFor, but never creates a record. */
    Info *
    findInfo(Addr addr)
    {
        Addr line = lineNum(addr);
        if (_lastInfo && _lastInfoLine == line)
            return _lastInfo;
        Info *i = _info.find(line);
        if (i) {
            _lastInfoLine = line;
            _lastInfo = i;
        }
        return i;
    }

    /** Erase @p info (the record of @p addr) if nothing needs it;
     *  returns true when it was erased. */
    bool maybeErase(Info &info, Addr addr);

    Pending &pendingOf(const Info &info) { return _pending[info.pending]; }
    const Pending &
    pendingOf(const Info &info) const
    {
        return _pending[info.pending];
    }
    bool
    hasBlocked(const Info &info) const
    {
        return info.pending != noPending &&
               !pendingOf(info).blocked.empty();
    }

    /** @p info's pending entry, taken from the pool if it has none. */
    Pending &holdPending(Info &info);
    /** Return @p info's pending entry to the pool once it is not busy,
     *  not peActive and has nothing blocked. */
    void releasePending(Info &info);
    /** Start an L1-request / engine-initiated transaction on @p info's
     *  line; returns its freshly reset state. */
    Txn &beginTxn(Info &info);
    Txn &beginPeTxn(Info &info);
    /** Park @p msg behind the line's active transaction. */
    void block(Info &info, IcsMsg msg);

    /**
     * Read-time parity check: returns the line, or discards a
     * parity-bad copy (clean, so memory is current — the caller then
     * proceeds as on an L2 miss and refetches) and returns null.
     */
    L2Line *findChecked(Addr addr);

    /**
     * The one entry for a message whose lookup latency has passed
     * (@p retry false) or for a blocked request drained from its
     * line's queue (@p retry true). An L1 request or engine op runs
     * only when canProcess allows it, and a fresh L1 request also
     * waits behind the line's blocked requests. One that cannot run
     * is blocked, except a retried L1 request, which goes back to the
     * head of the queue uncounted. A retried request that ran keeps
     * the queue draining.
     */
    void dispatch(IcsMsg msg, bool retry);

    // Request-side handlers.
    void dispatchL1Request(IcsMsg msg);
    void handleVictim(const IcsMsg &msg);
    void onFwdDone(const IcsMsg &msg);
    void onGatherData(const IcsMsg &msg);
    void onMemData(Addr addr, const LineData &data,
                   std::uint64_t dir_bits);
    void onPeData(const IcsMsg &msg);
    void onPeReadLocal(IcsMsg msg);
    void onPeInvalLocal(IcsMsg msg);

    // Actions.
    void replyFill(const IcsMsg &req, const LineData &data, bool has_data,
                   bool exclusive, FillSource source);
    void replyUpgradeAck(const IcsMsg &req);
    /** Send a FwdGetX (@p excl) or FwdGetS for @p req's line to owner
     *  L1 @p owner, which supplies @p requester (an L1 or, for an
     *  engine gather, this bank). */
    void sendFwd(const IcsMsg &req, bool excl, int owner, int requester);
    /** Forward L1 request @p req to the line's owner L1, record the
     *  requester as the new owner and start the L1Fwd transaction. */
    void forwardToOwner(Info &info, IcsMsg req, bool excl);
    /** L1 @p l1 becomes the line's owner: sole sharer when @p excl,
     *  else one more sharer. Traced as OwnerChange. */
    void recordOwner(Info &info, Addr addr, int l1, bool excl);
    /** The chip now holds the line exclusively: no remote copy of a
     *  home-local line, write permission for a remote-homed one. */
    void markNodeExclusive(Info &info, Addr addr);
    /** Invalidate every sharer L1 outside the @p keep mask. */
    void invalL1Sharers(Info &info, Addr addr, std::uint32_t keep);
    void invalL2Copy(Info &info, Addr addr);
    void installL2(Info &info, Addr addr, const LineData &data,
                   bool dirty);
    void evictL2Line(L2Line &line);
    void dropL2Copy(Info &info, L2Line &line);
    /** Hand @p txn's request to the home or the remote engine; the
     *  transaction waits for PeData. */
    void sendEngine(Txn &txn, PeOp op, bool to_home);
    void finishTxn(Info &info, Addr addr);
    void finishPeTxn(Info &info, Addr addr);
    void drainBlocked(Info &info);
    bool canProcess(const Info &info, const IcsMsg &msg) const;
    void completePeRead(Info &info, Addr addr);
    void grantLocalExclusive(IcsMsg req, const LineData *mem_data);
    /** A parity-fault site: a valid, clean, local-homed line with no
     *  transaction in flight (see faultEligibleLines). */
    bool faultEligible(const L2Line &l);

    const ChipContext _ctx;
    L2Params _p;
    const Clock &_clk;
    IntraChipSwitch &_ics;
    int _myPort;
    AddressMap _amap;
    MemCtrl &_mc;

    TagArray<L2Line> _tags;
    /** Keyed by line number; values pointer-stable (the protocol code
     *  holds Info& across calls that may create state for other
     *  lines). */
    StableLineTable<Info> _info;
    Addr _lastInfoLine = 0;
    Info *_lastInfo = nullptr;
    /** Pending entries, pointer-stable like the records: Txn&
     *  references are held across calls that may take entries for
     *  other lines. */
    SlabPool<Pending> _pending;
    std::function<void(Addr, const LineData &)> _wbBufferHook;
    EventPool<MsgEvent> _msgEvents;
    StatGroup _stats;
};

} // namespace piranha

#endif // PIRANHA_CACHE_L2_BANK_H
