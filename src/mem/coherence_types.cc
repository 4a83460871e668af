#include "mem/coherence_types.h"

#include <atomic>

namespace piranha {

const char *
fillSourceName(FillSource s)
{
    switch (s) {
      case FillSource::StoreBuffer: return "store-buffer";
      case FillSource::L1: return "L1";
      case FillSource::L2Hit: return "L2-hit";
      case FillSource::L2Fwd: return "L2-fwd";
      case FillSource::MemLocal: return "mem-local";
      case FillSource::MemRemote: return "mem-remote";
      case FillSource::RemoteDirty: return "remote-dirty";
    }
    return "?";
}

const char *
icsMsgTypeName(IcsMsgType t)
{
    switch (t) {
      case IcsMsgType::GetS: return "GetS";
      case IcsMsgType::GetX: return "GetX";
      case IcsMsgType::Upgrade: return "Upgrade";
      case IcsMsgType::Wh64Req: return "Wh64Req";
      case IcsMsgType::FillS: return "FillS";
      case IcsMsgType::FillX: return "FillX";
      case IcsMsgType::UpgradeAck: return "UpgradeAck";
      case IcsMsgType::Inval: return "Inval";
      case IcsMsgType::FwdGetS: return "FwdGetS";
      case IcsMsgType::FwdGetX: return "FwdGetX";
      case IcsMsgType::PeerFillS: return "PeerFillS";
      case IcsMsgType::PeerFillX: return "PeerFillX";
      case IcsMsgType::FwdDone: return "FwdDone";
      case IcsMsgType::ToHomeEngine: return "ToHomeEngine";
      case IcsMsgType::ToRemoteEngine: return "ToRemoteEngine";
      case IcsMsgType::PeData: return "PeData";
      case IcsMsgType::PeReadLocal: return "PeReadLocal";
      case IcsMsgType::PeReadLocalRsp: return "PeReadLocalRsp";
      case IcsMsgType::PeInvalLocal: return "PeInvalLocal";
      case IcsMsgType::PeWbAck: return "PeWbAck";
      case IcsMsgType::PeComplete: return "PeComplete";
    }
    return "?";
}

const char *
peOpName(PeOp op)
{
    switch (op) {
      case PeOp::None: return "None";
      case PeOp::ReqS: return "ReqS";
      case PeOp::ReqX: return "ReqX";
      case PeOp::ReqUpgrade: return "ReqUpgrade";
      case PeOp::WbExcl: return "WbExcl";
    }
    return "?";
}

const char *
protocolFaultName(ProtocolFault f)
{
    switch (f) {
      case ProtocolFault::None: return "none";
      case ProtocolFault::DropInval: return "drop-inval";
      case ProtocolFault::SkipDupTagUpdate: return "skip-dup-tag";
      case ProtocolFault::DropVictimWriteback: return "drop-victim-wb";
      case ProtocolFault::WbRaceStaleData: return "wb-race-stale";
      case ProtocolFault::StaleCmiApply: return "stale-cmi";
      case ProtocolFault::FwdKeepOwner: return "fwd-keep-owner";
      case ProtocolFault::SbDropOnMiss: return "sb-drop-on-miss";
    }
    return "?";
}

std::uint64_t
nextReqId()
{
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace piranha
