/**
 * @file
 * What every module of one Piranha chip shares (paper §2, Figure 1).
 *
 * A chip is eight replicated CPU/L1 slots, eight L2 banks with their
 * memory controllers and two protocol engines on one intra-chip
 * switch. Each of these modules needs only its chip's node id and the
 * observers attached to the run. PiranhaChip builds one ChipContext
 * and passes it to the constructor of every L1, L2 bank, memory
 * controller, protocol engine and the switch; nothing else carries
 * these values.
 */

#ifndef PIRANHA_SYSTEM_CHIP_CONTEXT_H
#define PIRANHA_SYSTEM_CHIP_CONTEXT_H

#include "sim/types.h"

namespace piranha {

class CoherenceTracer;
struct FaultState;
class FaultInjector;

/** The chip-wide values handed to every component of one chip. */
struct ChipContext
{
    NodeId node = 0;

    /** Coherence trace ring (src/check/); null = untraced. */
    CoherenceTracer *tracer = nullptr;

    /** Seeded protocol mutation (src/check/); null = none. */
    FaultState *faults = nullptr;

    /** Fault injector (src/fault/), owned by the system; null = no
     *  injection (each hook costs one predictable branch). */
    FaultInjector *injector = nullptr;
};

} // namespace piranha

#endif // PIRANHA_SYSTEM_CHIP_CONTEXT_H
