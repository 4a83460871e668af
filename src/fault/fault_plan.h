/**
 * @file
 * Value types describing a deterministic fault-injection plan.
 *
 * This header is deliberately low in the layering (sim-level types
 * only) so SystemConfig can embed a plan by value: a campaign point
 * is then nothing more than a SystemConfig + Workload, and the
 * existing sweep harness machinery (fresh universe per job, bit-exact
 * reproducibility from the seed) carries over unchanged.
 *
 * A plan is either explicit (a list of PlannedFaults with fixed fire
 * times and sites) or drawn: `count` faults are sampled from `kinds`
 * with fire times uniform in [windowStart, windowEnd), using a Pcg32
 * seeded from `seed`. Either way the resulting schedule is a pure
 * function of the plan, so a campaign re-run with the same seeds
 * reproduces the same outcome histogram bit-for-bit.
 *
 * The heavy machinery lives in src/fault/injector.*; this header only
 * declares the plan, so configs can carry a (disabled) one without
 * pulling the injector in.
 */

#ifndef PIRANHA_FAULT_FAULT_PLAN_H
#define PIRANHA_FAULT_FAULT_PLAN_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"

namespace piranha {

/**
 * The fault sites the injector knows how to hit. Memory faults are
 * driven through the real Secded256 decode (§2.5.2 of the paper puts
 * the directory in the spare ECC bits, so directory corruption is a
 * memory-fault flavour, not a separate mechanism); cache faults model
 * the parity the paper specifies on L1/L2 tag and data arrays;
 * switch/network faults model transient transport loss.
 */
enum class FaultKind : std::uint8_t
{
    MemDataFlip,       ///< 1 data bit in an RDRAM line: ECC corrects, scrub
    MemDataDoubleFlip, ///< 2 data bits in one ECC block: uncorrectable
    MemCheckFlip,      ///< 1 stored check bit: ECC corrects the check side
    MemDirFlip,        ///< 1 directory bit (lives in spare ECC bits)
    L1TagFlip,         ///< L1 tag parity error on a valid line
    L1DataFlip,        ///< L1 data parity error on a valid line
    L2TagFlip,         ///< L2 tag parity error on a valid clean line
    L2DataFlip,        ///< L2 data parity error on a valid clean line
    IcsDrop,           ///< lose one intra-chip switch message
    IcsDup,            ///< deliver one ICS message twice
    IcsDelay,          ///< hold one ICS message for 200 ns
    NetDrop,           ///< lose one inter-chip packet (4 us retry)
    NetDup,            ///< deliver one inter-chip packet twice
    NetDelay,          ///< hold one inter-chip packet for 2 us
    MemStall,          ///< memory channel busy for 1 us
    kNumKinds,
};

/** Stable lower-case name for reports and CLI parsing. */
const char *faultKindName(FaultKind k);

/** Parse faultKindName output; returns kNumKinds when unknown. */
FaultKind faultKindFromName(const char *name);

/** One scheduled fault: what, when, and on which node. */
struct PlannedFault
{
    FaultKind kind = FaultKind::MemDataFlip;
    Tick at = 0;        ///< absolute fire tick
    unsigned node = 0;  ///< target node (chip) index
};

/** One fault that actually fired, for campaign records and dumps. */
struct FiredFault
{
    FaultKind kind = FaultKind::MemDataFlip;
    Tick at = 0;
    unsigned node = 0;
    std::string site; //!< human-readable site description
};

/** A complete, deterministic injection plan for one run. */
struct FaultPlanConfig
{
    /** Seed for site selection (and fire times of drawn faults). */
    std::uint64_t seed = 1;

    /** Explicit schedule; used as-is when non-empty. */
    std::vector<PlannedFault> planned;

    /** Random plan: draw `count` faults from `kinds`... */
    unsigned count = 0;
    std::vector<FaultKind> kinds;
    /** ...with fire times uniform in [windowStart, windowEnd). */
    Tick windowStart = 1 * ticksPerUs;
    Tick windowEnd = 50 * ticksPerUs;

    /** True when the plan will fire at least one fault. */
    bool any() const { return count > 0 || !planned.empty(); }
};

/**
 * Host-side fault/recovery counters. Plain integers, deliberately not
 * Scalars: they must never enter the stat tree, so a zero-fault run
 * stays stat-tree-identical to a plain run. Defined here (not in
 * injector.h) so RunResult can embed a copy in both build modes.
 */
struct FaultCounters
{
    std::uint64_t fired = 0;  ///< faults that landed on a site
    std::uint64_t noSite = 0; ///< fires that found no eligible site

    // Memory / ECC path.
    std::uint64_t eccCorrectedData = 0;
    std::uint64_t eccCorrectedCheck = 0;
    std::uint64_t eccUncorrectable = 0;
    std::uint64_t scrubWrites = 0; ///< corrected lines rewritten
    std::uint64_t eccMaskedByWrite = 0;
    std::uint64_t dirFlips = 0;

    // Cache parity path.
    std::uint64_t l1ParityRefetch = 0;
    std::uint64_t l2ParityRefetch = 0;
    std::uint64_t parityMaskedByOverwrite = 0;

    // Transport path.
    std::uint64_t icsDropped = 0;
    std::uint64_t icsDuplicated = 0;
    std::uint64_t icsDelayed = 0;
    std::uint64_t netDropped = 0;
    std::uint64_t netRetransmits = 0;
    std::uint64_t netDuplicated = 0;
    std::uint64_t netDupFiltered = 0;
    std::uint64_t netDelayed = 0;

    std::uint64_t memStalls = 0;
    std::uint64_t machineChecks = 0;

    /** Recoveries that actually exercised machinery (not masked). */
    std::uint64_t
    recoveries() const
    {
        return l1ParityRefetch + l2ParityRefetch + netRetransmits +
               netDupFiltered + netDelayed + icsDelayed + icsDuplicated;
    }

    /** ECC corrections (including scrub round trips). */
    std::uint64_t
    corrections() const
    {
        return eccCorrectedData + eccCorrectedCheck;
    }
};

/**
 * Classification of one fault-injected run (DESIGN.md §9), assigned
 * by the campaign's classifyRun. Declared here so a sweep job's
 * result can carry it.
 */
enum class FaultOutcome : std::uint8_t
{
    NotFired,  ///< the planned fault found no eligible site
    Masked,    ///< fired, but nothing read the damage
    Corrected, ///< SECDED corrected it in-line
    Recovered, ///< a detect-and-recover path ran
    Detected,  ///< a machine check or a panic caught it
    Silent,    ///< completed, but the coherence checker objected
    Hang,      ///< the watchdog tripped or simulated time ran out
    Failed,    ///< the host stopped the run or lost it
    kNumOutcomes,
};

/** Stable lower-case name for reports. */
const char *faultOutcomeName(FaultOutcome o);

/** Parse faultOutcomeName output; returns kNumOutcomes when unknown. */
FaultOutcome faultOutcomeFromName(const std::string &name);

} // namespace piranha

#endif // PIRANHA_FAULT_FAULT_PLAN_H
