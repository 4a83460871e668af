/**
 * @file
 * Fault-injection campaigns.
 *
 * A campaign runs one workload K times, each run a fresh deterministic
 * universe with its own seeded fault plan (seed_i = baseSeed + i), and
 * classifies every run into the outcome taxonomy of DESIGN.md §9:
 *
 *   NotFired   the planned fault found no eligible site (noSite)
 *   Masked     fault fired but no detection/recovery machinery was
 *              exercised and the run completed (overwritten before
 *              read, flipped bits of a dead line, ...)
 *   Corrected  SECDED corrected the error in-line (single-bit)
 *   Recovered  a detect-and-recover path ran (L1/L2 parity refetch,
 *              NoC retransmit / dup filter / delayed delivery)
 *   Detected   uncorrectable error detected and reported as a machine
 *              check — clean abort, no silent state corruption
 *   Silent     run completed but the coherence checker found axiom
 *              violations in the trace (silent data corruption)
 *   Hang       forward progress stopped; the watchdog tripped and
 *              produced a diagnostic dump
 *   Failed     host-side failure of the run itself, a host timeout
 *              included (not a modelled fault outcome)
 *
 * Campaigns layer on SweepRunner: each injection is a custom sweep
 * job that runs the harness's job body (runSimulation) on its seeded
 * plan, so they inherit its thread pool, panic isolation, timeout,
 * process tier and SIGINT-drain machinery. A campaign with
 * injections that never fire (count = 0) produces runs bit-identical
 * to a plain system — tested by tests/fault_test.cc.
 */

#ifndef PIRANHA_FAULT_CAMPAIGN_H
#define PIRANHA_FAULT_CAMPAIGN_H

#include <map>
#include <string>
#include <vector>

#include "harness/sweep_runner.h"

namespace piranha {

/** Classification of one fault-injected run (see file comment). */
enum class FaultOutcome
{
    NotFired,
    Masked,
    Corrected,
    Recovered,
    Detected,
    Silent,
    Hang,
    Failed,
    kNumOutcomes,
};

const char *faultOutcomeName(FaultOutcome o);

/** A declared campaign: one workload, K seeded injections. */
struct CampaignSpec
{
    std::string name = "campaign";

    /** Base system; its .faults plan is overwritten per injection. */
    SystemConfig config;

    WorkloadDecl workload;
    Tick maxTime = 100 * 1000 * ticksPerUs;

    /** Number of injected runs; run i uses seed baseSeed + i. */
    unsigned injections = 16;
    std::uint64_t baseSeed = 1;

    /**
     * Plan template: every injection copies this (kinds, window,
     * count) and substitutes its own seed; count == 0 makes a
     * zero-fault campaign (identity check).
     */
    FaultPlanConfig planTemplate;

    /**
     * Attach a coherence tracer to every run and replay the checker
     * afterwards, so completed-but-corrupted runs classify as Silent
     * instead of Masked.
     */
    bool checkTrace = false;
};

/** Outcome of one injected run. */
struct InjectionRecord
{
    std::uint64_t seed = 0;
    FaultOutcome outcome = FaultOutcome::Failed;
    FaultCounters counters;
    std::vector<FiredFault> faults;     //!< what fired, where, when
    std::string detail;                 //!< machine-check / watchdog /
                                        //!< checker / error text
    std::string watchdogDump;           //!< diagnostic dump of a
                                        //!< hang or a panic
    std::map<std::string, double> stats; //!< flattened RunResult
};

/** Parse faultOutcomeName output; throws std::runtime_error on
 *  unknown names. */
FaultOutcome faultOutcomeFromName(const std::string &name);

/**
 * Serialize / parse one injection record as the per-run JSON object
 * of the campaign report schema. The record rides through the sweep
 * job's payload (CustomResult::payload), which is what lets campaign
 * results survive the process-tier worker pipe and the job journal —
 * there is no shared-memory side channel between an injection body
 * and the campaign aggregator.
 */
JsonValue injectionRecordToJson(const InjectionRecord &r,
                                bool include_dumps = true);
InjectionRecord injectionRecordFromJson(const JsonValue &v);

/** Executed campaign: per-injection records + outcome histogram. */
struct CampaignReport
{
    std::string name;
    bool interrupted = false; //!< SIGINT drain: records are partial
    double hostSeconds = 0;
    std::vector<InjectionRecord> runs;

    /** Outcome -> count over all runs. */
    std::map<std::string, unsigned> histogram() const;

    JsonValue toJson(bool include_dumps = true) const;
    bool writeJsonFile(const std::string &path,
                       bool include_dumps = true) const;
};

/**
 * Classify a finished run. Precedence: detection beats recovery beats
 * correction beats masking, because a run that ended in a machine
 * check may well have corrected other errors on the way down.
 */
FaultOutcome classifyRun(const RunResult &r, bool checker_ok,
                         bool checker_ran);

/** Executes a CampaignSpec on a SweepRunner. */
class CampaignRunner
{
  public:
    explicit CampaignRunner(SweepOptions opts = {})
        : _opts(opts), _runner(opts)
    {}

    CampaignReport run(const CampaignSpec &spec) const;

  private:
    SweepOptions _opts;
    SweepRunner _runner;
};

} // namespace piranha

#endif // PIRANHA_FAULT_CAMPAIGN_H
