/**
 * @file
 * System configurations from Table 1 of the paper.
 *
 * | Parameter            | P8 (ASIC)  | OOO / INO  | P8F (custom) |
 * |----------------------|------------|------------|--------------|
 * | Processor speed      | 500 MHz    | 1 GHz      | 1.25 GHz     |
 * | Issue width          | 1          | 4 / 1      | 1            |
 * | Instruction window   | -          | 64 / -     | -            |
 * | L1 (I+D, per CPU)    | 64KB 2-way | 64KB 2-way | 64KB 2-way   |
 * | L2                   | 1MB 8-way  | 1.5MB 6-way| 1.5MB 6-way  |
 * | L2 hit / L2 fwd      | 16 / 24 ns | 12 / -     | 12 / 16 ns   |
 * | Local memory         | 80 ns      | 80 ns      | 80 ns        |
 * | Remote memory        | 120 ns     | 120 ns     | 120 ns       |
 * | Remote dirty         | 180 ns     | 180 ns     | 180 ns       |
 *
 * Latencies are not plugged in directly: they emerge from the
 * structural models (ICS pipeline, L2 lookup, RDRAM timing, network
 * hops), whose cycle parameters below are chosen so the end-to-end
 * latencies land on Table 1 (verified by tests/latency_test.cc).
 */

#ifndef PIRANHA_SYSTEM_CONFIG_H
#define PIRANHA_SYSTEM_CONFIG_H

#include <string>
#include <vector>

#include "cpu/core.h"
#include "fault/fault_plan.h"
#include "noc/net_fabric.h"
#include "system/chip.h"

namespace piranha {

/** Which event-loop driver PiranhaSystem::run uses (DESIGN.md §13). */
enum class EngineKind
{
    Serial,   //!< single event queue, single host thread
    Parallel, //!< per-chip queues on worker threads, epoch barriers
};

/** A complete system configuration for the benchmark harness. */
struct SystemConfig
{
    std::string name;
    unsigned nodes = 1;
    unsigned cpusPerChip = 8;
    ChipParams chip{};
    CoreParams core{};

    /** Event-loop driver; Parallel is bit-identical to Serial run to
     *  quiescence (drainStop) for any shard count. */
    EngineKind engine = EngineKind::Serial;

    /** Worker threads for the parallel engine; 0 = one per chip. */
    unsigned shards = 0;

    /**
     * Run until every event queue drains instead of stopping at the
     * first all-cores-done scan. The parallel engine always quiesces
     * (its stop condition is global drain), so serial runs meant to be
     * compared against parallel ones must set this; default off keeps
     * the legacy stop rule and its pinned artifacts untouched.
     */
    bool drainStop = false;

    /**
     * Per-chip coherence tracers (index = node). Overrides
     * ChipParams::tracer chip by chip; required for tracing under the
     * parallel engine, where a single shared ring would be a data
     * race. Entries may be null (that chip untraced).
     */
    std::vector<CoherenceTracer *> chipTracers;

    /** Mutation/test hooks for the parallel engine (tests only). */
    ParallelHooks *parallelHooks = nullptr;

    /**
     * Fault-injection plan (src/fault/). Disabled by default; a
     * config whose plan never fires builds a system bit-identical to
     * one without an injector.
     */
    FaultPlanConfig faults{};
};

/** The Piranha prototype: 8 simple 500 MHz cores per chip (P8). */
SystemConfig configP8(unsigned nodes = 1);

/** Hypothetical single-CPU Piranha chip (P1). */
SystemConfig configP1();

/** Piranha with N CPUs per chip (P2/P4 used in Figs. 6-7). */
SystemConfig configPn(unsigned cpus, unsigned nodes = 1);

/** Next-generation 1 GHz 4-issue out-of-order baseline (OOO). */
SystemConfig configOOO(unsigned nodes = 1);

/** Single-issue in-order core otherwise identical to OOO (INO). */
SystemConfig configINO();

/** Full-custom Piranha: 1.25 GHz cores, faster L2 (P8F). */
SystemConfig configP8F();

/**
 * Pessimistic-parameter Piranha from the §4 sensitivity study:
 * 400 MHz CPUs, 32KB direct-mapped L1s, slower L2 (22/32 ns).
 */
SystemConfig configP8Pessimistic();

/**
 * Resolve a configuration by its SystemConfig::name ("P1".."P8",
 * "OOO", "INO", "P8F", "P8-pess") at @p nodes chips. Trace replay
 * (src/trace) uses this to rebuild the recorded run's system from the
 * name stored in the trace header. Throws std::invalid_argument for
 * unknown names.
 */
SystemConfig configByName(const std::string &name, unsigned nodes = 1);

} // namespace piranha

#endif // PIRANHA_SYSTEM_CONFIG_H
