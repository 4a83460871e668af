#include "fault/campaign.h"

#include "check/checker.h"
#include "sim/logging.h"

namespace piranha {

FaultOutcome
classifyRun(const RunResult &r, bool checker_ok, bool checker_ran)
{
    if (r.machineCheck)
        return FaultOutcome::Detected;
    if (r.watchdogTripped)
        return FaultOutcome::Hang;
    if (checker_ran && !checker_ok)
        return FaultOutcome::Silent;
    if (r.aborted)
        // Not the watchdog, not a machine check: the run ran out of
        // simulated time without finishing its work — forward
        // progress effectively stopped.
        return FaultOutcome::Hang;
    if (r.faults.fired == 0)
        return FaultOutcome::NotFired;
    if (r.faults.recoveries() > 0)
        return FaultOutcome::Recovered;
    if (r.faults.corrections() > 0)
        return FaultOutcome::Corrected;
    return FaultOutcome::Masked;
}

std::map<std::string, unsigned>
outcomeHistogram(const SweepReport &report)
{
    std::map<std::string, unsigned> h;
    for (const JobResult &j : report.jobs)
        if (j.status != JobStatus::Cancelled)
            ++h[faultOutcomeName(j.outcome.value_or(FaultOutcome::Failed))];
    return h;
}

namespace {

/** Body of one injected run: the harness's job body with the plan
 *  seeded and the checker attached, its result classified. */
JobResult
runInjection(const CampaignSpec &spec, std::uint64_t seed,
             const AbortCheck &should_abort)
{
    SweepPoint pt;
    pt.config = spec.config;
    pt.config.faults = spec.planTemplate;
    pt.config.faults.seed = seed;
    pt.workload = spec.workload;
    pt.maxTime = spec.maxTime;

    CoherenceTracer tracer;
    if (spec.checkTrace)
        pt.config.chip.tracer = &tracer;

    // A host-side error propagates; the runner records a failed job.
    JobResult jr = runSimulation(pt, should_abort, false);
    jr.planSeed = seed;
    if (endedInPanic(jr)) {
        // The fault drove the model into a state it recognised as
        // impossible — detected, not silent.
        jr.outcome = FaultOutcome::Detected;
        return jr;
    }
    // The outcome is the measurement, so a run that stopped short
    // keeps its stats too.
    jr.stats = flattenRunResult(jr.run);
    if (jr.status == JobStatus::TimedOut) {
        // The host stopped the run: a failed injection, not a
        // modelled outcome.
        jr.outcome = FaultOutcome::Failed;
        return jr;
    }
    CheckReport chk;
    if (spec.checkTrace)
        chk = checkCoherence(tracer.events(), tracer.dropped());
    jr.outcome = classifyRun(jr.run, chk.ok(), spec.checkTrace);
    if (jr.outcome == FaultOutcome::Silent)
        jr.error = strFormat("%zu coherence violation(s), first: %s",
                             chk.violations.size(),
                             chk.violations.empty()
                                 ? "(truncated trace)"
                                 : chk.violations.front().detail.c_str());
    return jr;
}

} // namespace

SweepReport
CampaignRunner::run(const CampaignSpec &spec) const
{
    std::vector<SweepPoint> points;
    points.reserve(spec.injections);
    for (unsigned i = 0; i < spec.injections; ++i) {
        std::uint64_t seed = spec.baseSeed + i;
        SweepPoint pt;
        pt.label = strFormat("%s/seed%llu", spec.name.c_str(),
                             static_cast<unsigned long long>(seed));
        // By value, so each job owns everything it reads.
        pt.custom = [spec, seed](const AbortCheck &should_abort) {
            return runInjection(spec, seed, should_abort);
        };
        points.push_back(std::move(pt));
    }
    return _runner.run(spec.name, points);
}

} // namespace piranha
