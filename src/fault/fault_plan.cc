#include "fault/fault_plan.h"

#include <cstring>

namespace piranha {

const char *
faultKindName(FaultKind k)
{
    switch (k) {
    case FaultKind::MemDataFlip: return "mem_data_flip";
    case FaultKind::MemDataDoubleFlip: return "mem_data_double_flip";
    case FaultKind::MemCheckFlip: return "mem_check_flip";
    case FaultKind::MemDirFlip: return "mem_dir_flip";
    case FaultKind::L1TagFlip: return "l1_tag_flip";
    case FaultKind::L1DataFlip: return "l1_data_flip";
    case FaultKind::L2TagFlip: return "l2_tag_flip";
    case FaultKind::L2DataFlip: return "l2_data_flip";
    case FaultKind::IcsDrop: return "ics_drop";
    case FaultKind::IcsDup: return "ics_dup";
    case FaultKind::IcsDelay: return "ics_delay";
    case FaultKind::NetDrop: return "net_drop";
    case FaultKind::NetDup: return "net_dup";
    case FaultKind::NetDelay: return "net_delay";
    case FaultKind::MemStall: return "mem_stall";
    case FaultKind::kNumKinds: break;
    }
    return "unknown";
}

FaultKind
faultKindFromName(const char *name)
{
    for (unsigned i = 0;
         i < static_cast<unsigned>(FaultKind::kNumKinds); ++i) {
        auto k = static_cast<FaultKind>(i);
        if (std::strcmp(faultKindName(k), name) == 0)
            return k;
    }
    return FaultKind::kNumKinds;
}

const char *
faultOutcomeName(FaultOutcome o)
{
    switch (o) {
    case FaultOutcome::NotFired: return "not_fired";
    case FaultOutcome::Masked: return "masked";
    case FaultOutcome::Corrected: return "corrected";
    case FaultOutcome::Recovered: return "recovered";
    case FaultOutcome::Detected: return "detected";
    case FaultOutcome::Silent: return "silent";
    case FaultOutcome::Hang: return "hang";
    case FaultOutcome::Failed: return "failed";
    case FaultOutcome::kNumOutcomes: break;
    }
    return "unknown";
}

FaultOutcome
faultOutcomeFromName(const std::string &name)
{
    for (unsigned i = 0;
         i < static_cast<unsigned>(FaultOutcome::kNumOutcomes); ++i) {
        auto o = static_cast<FaultOutcome>(i);
        if (name == faultOutcomeName(o))
            return o;
    }
    return FaultOutcome::kNumOutcomes;
}

} // namespace piranha
