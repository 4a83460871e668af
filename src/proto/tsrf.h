/**
 * @file
 * Transaction State Register File entry (paper §2.5.1).
 *
 * On a new transaction, the protocol engine allocates a TSRF entry
 * representing the thread's state: addresses, program counter, state
 * variables, and the registers the microcode manipulates. A thread
 * waiting for a response has its entry set to a waiting state and the
 * incoming message is matched by transaction address. Each engine has
 * 16 entries, bounding concurrent protocol transactions (and, with
 * CMI, the network buffering required per node).
 */

#ifndef PIRANHA_PROTO_TSRF_H
#define PIRANHA_PROTO_TSRF_H

#include <cstdint>
#include <vector>

#include "mem/coherence_types.h"
#include "mem/directory.h"
#include "noc/packet.h"
#include "sim/types.h"

namespace piranha {

/** One TSRF entry / microcode thread. */
struct TsrfEntry
{
    bool valid = false;
    Addr addr = 0;
    std::uint16_t pc = 0;

    enum class Wait : std::uint8_t
    {
        None,
        Net,   //!< RECEIVE pending
        Local, //!< LRECEIVE pending
    } wait = Wait::None;
    std::uint16_t waitMask = 0;
    /** A local reply reached this thread after its LSEND but before
     *  its LRECEIVE ran; it waits in `local` for that LRECEIVE. */
    bool heldLocal = false;

    /** Message registers. */
    NetPacket msg;     //!< last received network message
    NetPacket origMsg; //!< network message that started this thread
    IcsMsg local;      //!< last received / spawning local message
    IcsMsg origLocal;  //!< local request that started this thread

    /** State registers manipulated by SET/MOVE/TEST. */
    DirEntry dir{2};
    LineData data;
    bool hasData = false;
    bool dirty = false;
    NodeId requester = 0;
    NodeId ownerReg = 0; //!< stashed previous owner
    int acksLeft = 0;
    /** CMI plan: the targets, sorted and dealt round-robin into
     *  numChains routes (chain c visits cmiTargets[c], then every
     *  numChains-th one after it). The engine keeps this storage
     *  across spawns. */
    std::vector<NodeId> cmiTargets;
    std::size_t numChains = 0;
    std::size_t chainIdx = 0; //!< next chain to emit
    std::uint64_t reqId = 0;
    bool flagA = false;
    bool flagB = false;

    Tick started = 0;
};

/** Condition codes delivered by LRECEIVE. */
enum LocalCc : unsigned
{
    ccLocalReadRsp = 0, //!< PeReadLocalRsp
    ccLocalDone = 1,    //!< PeWbAck (generic completion)
};

/** The condition code LRECEIVE branches on for local reply @p type. */
inline unsigned
localCc(IcsMsgType type)
{
    return type == IcsMsgType::PeReadLocalRsp ? ccLocalReadRsp
                                              : ccLocalDone;
}

} // namespace piranha

#endif // PIRANHA_PROTO_TSRF_H
