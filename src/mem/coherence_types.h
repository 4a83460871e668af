/**
 * @file
 * Shared types of the Piranha memory system: cache-line payloads,
 * CPU-level requests, intra-chip switch messages, and the state
 * enumerations used by the L1s, the L2 duplicate-tag directory and the
 * protocol engines.
 *
 * Data is modeled at full 64-byte payload fidelity: protocol messages
 * carry line contents, so the coherence random tester can detect
 * protocol bugs as actual data corruption rather than only as state
 * assertion failures.
 */

#ifndef PIRANHA_MEM_COHERENCE_TYPES_H
#define PIRANHA_MEM_COHERENCE_TYPES_H

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>

#include "sim/types.h"

namespace piranha {

/** A full cache-line payload. */
struct LineData
{
    std::array<std::uint8_t, lineBytes> bytes{};

    /** Read an aligned little-endian value of @p size bytes. */
    std::uint64_t
    read(unsigned offset, unsigned size) const
    {
        std::uint64_t v = 0;
        std::memcpy(&v, &bytes[offset], size);
        return v;
    }

    /** Write an aligned little-endian value of @p size bytes. */
    void
    write(unsigned offset, unsigned size, std::uint64_t v)
    {
        std::memcpy(&bytes[offset], &v, size);
    }

    bool operator==(const LineData &o) const { return bytes == o.bytes; }
};

/** CPU-level memory operation kinds. */
enum class MemOp : std::uint8_t
{
    Ifetch, //!< instruction fetch (through the iL1)
    Load,   //!< data load
    Store,  //!< data store
    Wh64,   //!< Alpha write-hint: exclusive-without-data for a full line
};

/** Where a CPU request was ultimately serviced (stall attribution). */
enum class FillSource : std::uint8_t
{
    StoreBuffer, //!< load forwarded from the store buffer
    L1,          //!< L1 hit
    L2Hit,       //!< shared L2 hit
    L2Fwd,       //!< forwarded to / serviced by another on-chip L1
    MemLocal,    //!< local memory (home on this chip)
    MemRemote,   //!< remote home memory (2-hop)
    RemoteDirty, //!< dirty copy at a third node (3-hop)
};

/** Human-readable name for a fill source. */
const char *fillSourceName(FillSource s);

/** A CPU request presented to an L1 cache. */
struct MemReq
{
    MemOp op = MemOp::Load;
    Addr addr = 0;
    std::uint8_t size = 8;    //!< access size in bytes (1..8)
    std::uint64_t value = 0;  //!< store data
    /**
     * Atomic (store-conditional) stores bypass the store buffer and
     * complete only once the line is held modifiable and the data is
     * applied — i.e. when the store is globally ordered.
     */
    bool atomic = false;
};

/** Completion information returned to the CPU. */
struct MemRsp
{
    std::uint64_t value = 0;  //!< loaded value (loads only)
    FillSource source = FillSource::L1;
};

/** CPU completion callback. */
using MemRspFn = std::function<void(const MemRsp &)>;

/**
 * Allocation-free alternative to MemRspFn: a long-lived requester
 * (the Core) implements this interface and the L1 calls back through
 * it instead of through a freshly captured closure per access.
 */
class MemRspClient
{
  public:
    virtual ~MemRspClient() = default;
    /** One outstanding access of this client completed. */
    virtual void memRsp(const MemRsp &rsp) = 0;
};

/** MESI state of an L1 line (2-bit state field per line, §2.1). */
enum class L1State : std::uint8_t
{
    I = 0,
    S = 1,
    E = 2,
    M = 3,
};

/** Intra-chip switch message types. */
enum class IcsMsgType : std::uint8_t
{
    // L1 -> L2 bank requests (low-priority lane).
    GetS,        //!< read miss (iL1 or dL1)
    GetX,        //!< write miss
    Upgrade,     //!< S -> M permission request (no data needed)
    Wh64Req,     //!< exclusive-without-data for a full-line write
    WbData,      //!< L1 victim data write-back (owner replacement)

    // L2 bank -> L1 responses and demands (high-priority lane).
    FillS,       //!< data reply, shared
    FillX,       //!< data reply, exclusive/modifiable
    UpgradeAck,  //!< permission granted, no data
    Inval,       //!< invalidate (no acknowledgement: ICS ordering)
    FwdGetS,     //!< owner L1 must supply data to a peer; downgrade to S
    FwdGetX,     //!< owner L1 must supply data to a peer; invalidate

    // L1 -> L1 (high-priority lane): data supplied on behalf of L2.
    PeerFillS,
    PeerFillX,

    // L1 -> L2 notification that a forward was serviced.
    FwdDone,

    // L2 bank <-> protocol engine traffic (see proto/).
    ToHomeEngine,    //!< local request needs home-engine action
    ToRemoteEngine,  //!< local request's home is remote
    PeData,          //!< engine -> L2: fill/grant from the network
    PeReadLocal,     //!< engine -> L2: obtain line (+invalidate) locally
    PeReadLocalRsp,  //!< L2 -> engine: line data reply
    PeInvalLocal,    //!< engine -> L2: invalidate all on-chip copies
    PeWbAck,         //!< L2 -> engine: local op completed
    PeComplete,      //!< engine -> L2: release a held pending entry
};

/** Name string for an ICS message type. */
const char *icsMsgTypeName(IcsMsgType t);

/** What the protocol engine is asked to do / reports back. */
enum class PeOp : std::uint8_t
{
    None = 0,
    ReqS,       //!< fetch line shared
    ReqX,       //!< fetch line exclusive
    ReqUpgrade, //!< upgrade S -> M
    ReqWh64,    //!< exclusive without data
    WbExcl,     //!< node-level write-back of an exclusive/dirty line
    WbShared,   //!< write-back data but node retains shared copies
};

/** Local read modes for engine-initiated L2 accesses (PeReadLocal). */
enum class PeLocalMode : std::uint8_t
{
    Share,   //!< obtain data; local copies may remain shared
    Excl,    //!< obtain data; invalidate all local copies
    DirOnly, //!< directory bits only (no data needed)
};

/**
 * One intra-chip switch transfer. Short transfers (requests, grants)
 * occupy the 64-bit datapath for one cycle; transfers with data occupy
 * it for lineBytes/8 = 8 additional cycles.
 */
struct IcsMsg
{
    IcsMsgType type = IcsMsgType::GetS;
    Addr addr = 0;

    int srcPort = -1;
    int dstPort = -1;

    /** Requesting L1 (for fills and forwards). */
    int l1Id = -1;
    /** Peer L1 that should receive data on a forward. */
    int peerL1Id = -1;

    bool hasData = false;
    LineData data;

    /** Fill source attribution carried with replies. */
    FillSource source = FillSource::L2Hit;

    /** Whether the L1 should write back its victim (piggybacked). */
    bool writeBackVictim = false;
    /** Victim address the L1 is replacing (piggybacked on requests). */
    Addr victimAddr = 0;
    bool hasVictim = false;
    /** Victim was in M state (dirty) at the L1. */
    bool victimDirty = false;

    /** Protocol-engine operation (engine traffic only). */
    PeOp peOp = PeOp::None;
    /** Exclusivity granted (PeData) / requested. */
    bool exclusive = false;
    /** Mode of a PeReadLocal. */
    PeLocalMode mode = PeLocalMode::Share;
    /**
     * PeReadLocal: keep the line's pending entry held after the
     * reply, blocking local requests until the engine's PeComplete —
     * the engine transaction owns the line "for the duration of the
     * original transaction" (directory updates and memory writes it
     * posts must be ordered before any local re-read).
     */
    bool holdLine = false;

    /** Directory bits (requests to the home engine, PeReadLocalRsp). */
    std::uint64_t dirBits = 0;
    bool hasDir = false;
    /** Any on-chip copy existed (PeReadLocalRsp). */
    bool localPresent = false;
    /** Local data was dirty w.r.t. memory (PeReadLocalRsp). */
    bool localDirty = false;
    /** A stale invalidation may still arrive; absorb it (PeData). */
    bool absorbInval = false;

    /**
     * This is a parity-refetch self-victim (src/fault/): the L1 is
     * replacing a clean line whose data failed parity, so the L2 must
     * clear the ownership records but not install the shipped data.
     */
    bool parityVictim = false;

    /** Transaction id for matching requests to replies. */
    std::uint64_t reqId = 0;
};

/** Allocate a fresh transaction id (process-wide, diagnostics only). */
std::uint64_t nextReqId();

/** Coherence event tracer (src/check/trace.h); owned by the harness. */
class CoherenceTracer;

/** Fault injector (src/fault/injector.h); owned by the system. */
class FaultInjector;

/**
 * Deliberate protocol mutations for checker-sensitivity testing.
 *
 * Each value names one silent-corruption bug seeded at a specific
 * point in the protocol (see DESIGN.md "Fault seeding"). Faults are
 * chosen so they never trip an in-simulator panic: the run completes
 * and the offline checker — not a crash — must flag the damage.
 */
enum class ProtocolFault : std::uint8_t
{
    None,
    DropInval,           //!< L2 clears the sharer bit but never sends
                         //!< the invalidation to that L1
    SkipDupTagUpdate,    //!< L2 forgets to record a sharer on a GetS
                         //!< hit (dup-tag / directory out of sync)
    DropVictimWriteback, //!< dirty L1 victim reaches the L2 but its
                         //!< data is not installed
    WbRaceStaleData,     //!< write-back buffer serves stale (zeroed)
                         //!< data to a forward racing the write-back
    StaleCmiApply,       //!< cruise-missile invalidation acknowledged
                         //!< and applied to node-level state, but the
                         //!< L1 invalidations are skipped — stale L1
                         //!< copies survive the epoch change
    FwdKeepOwner,        //!< owner L1 services FwdGetX but illegally
                         //!< keeps its modified copy
    SbDropOnMiss,        //!< store-buffer entry discarded instead of
                         //!< issued when its line misses in the L1
};

const char *protocolFaultName(ProtocolFault f);

/** Runtime state of one seeded fault, shared across a run's chips. */
struct FaultState
{
    ProtocolFault kind = ProtocolFault::None;
    std::uint64_t fires = 0; //!< times the mutated path was taken

    /** True (and counted) when the seeded fault is @p k. */
    bool
    fire(ProtocolFault k)
    {
        if (kind != k)
            return false;
        ++fires;
        return true;
    }
};

} // namespace piranha

#endif // PIRANHA_MEM_COHERENCE_TYPES_H
