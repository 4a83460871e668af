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
 * plan and returns that result with its outcome added, so a campaign
 * inherits the thread pool, panic isolation, timeout, process tier,
 * journal and SIGINT drain, and its report is a SweepReport. A
 * campaign with injections that never fire (count = 0) produces runs
 * bit-identical to a plain system — tested by tests/fault_test.cc.
 */

#ifndef PIRANHA_FAULT_CAMPAIGN_H
#define PIRANHA_FAULT_CAMPAIGN_H

#include <map>
#include <string>

#include "harness/sweep_runner.h"

namespace piranha {

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

/**
 * Outcome name -> injections over a campaign's report: a cancelled
 * job (SIGINT drain) never ran and is left out, and a job without an
 * outcome (its body threw, or its worker died) counts as failed.
 */
std::map<std::string, unsigned> outcomeHistogram(const SweepReport &report);

/**
 * Classify a finished run. Precedence: detection beats recovery beats
 * correction beats masking, because a run that ended in a machine
 * check may well have corrected other errors on the way down.
 */
FaultOutcome classifyRun(const RunResult &r, bool checker_ok,
                         bool checker_ran);

/**
 * Executes a CampaignSpec on a SweepRunner: one job per injection,
 * labelled `<name>/seed<S>`, whose result carries the injection's
 * `faults` record (plan seed, outcome, counters, fired faults). The
 * report is the sweep's own.
 */
class CampaignRunner
{
  public:
    explicit CampaignRunner(SweepOptions opts = {}) : _runner(opts) {}

    SweepReport run(const CampaignSpec &spec) const;

  private:
    SweepRunner _runner;
};

} // namespace piranha

#endif // PIRANHA_FAULT_CAMPAIGN_H
