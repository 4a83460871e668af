#include "fault/campaign.h"

#include <fstream>

#include "check/checker.h"
#include "fault/injector.h"
#include "sim/logging.h"

namespace piranha {

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
    return "?";
}

FaultOutcome
faultOutcomeFromName(const std::string &name)
{
    for (unsigned i = 0;
         i < static_cast<unsigned>(FaultOutcome::kNumOutcomes); ++i) {
        FaultOutcome o = static_cast<FaultOutcome>(i);
        if (name == faultOutcomeName(o))
            return o;
    }
    throw std::runtime_error(
        strFormat("unknown fault outcome '%s'", name.c_str()));
}

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
CampaignReport::histogram() const
{
    std::map<std::string, unsigned> h;
    for (const InjectionRecord &r : runs)
        ++h[faultOutcomeName(r.outcome)];
    return h;
}

namespace {

struct CounterField
{
    const char *key;
    std::uint64_t FaultCounters::*member;
};

// Order matters: it is the report's serialized field order.
const CounterField kCounterFields[] = {
    {"fired", &FaultCounters::fired},
    {"no_site", &FaultCounters::noSite},
    {"ecc_corrected_data", &FaultCounters::eccCorrectedData},
    {"ecc_corrected_check", &FaultCounters::eccCorrectedCheck},
    {"ecc_uncorrectable", &FaultCounters::eccUncorrectable},
    {"scrub_writes", &FaultCounters::scrubWrites},
    {"ecc_masked_by_write", &FaultCounters::eccMaskedByWrite},
    {"dir_flips", &FaultCounters::dirFlips},
    {"l1_parity_refetch", &FaultCounters::l1ParityRefetch},
    {"l2_parity_refetch", &FaultCounters::l2ParityRefetch},
    {"parity_masked_by_overwrite",
     &FaultCounters::parityMaskedByOverwrite},
    {"ics_dropped", &FaultCounters::icsDropped},
    {"ics_duplicated", &FaultCounters::icsDuplicated},
    {"ics_delayed", &FaultCounters::icsDelayed},
    {"net_dropped", &FaultCounters::netDropped},
    {"net_retransmits", &FaultCounters::netRetransmits},
    {"net_duplicated", &FaultCounters::netDuplicated},
    {"net_dup_filtered", &FaultCounters::netDupFiltered},
    {"net_delayed", &FaultCounters::netDelayed},
    {"mem_stalls", &FaultCounters::memStalls},
    {"machine_checks", &FaultCounters::machineChecks},
};

} // namespace

JsonValue
injectionRecordToJson(const InjectionRecord &r, bool include_dumps)
{
    JsonValue jo = JsonValue::object();
    jo.set("seed", static_cast<double>(r.seed));
    jo.set("outcome", faultOutcomeName(r.outcome));
    if (!r.detail.empty())
        jo.set("detail", r.detail);
    if (!r.faults.empty()) {
        JsonValue fa = JsonValue::array();
        for (const FiredFault &f : r.faults) {
            JsonValue fo = JsonValue::object();
            fo.set("kind", faultKindName(f.kind));
            fo.set("at_ps", static_cast<double>(f.at));
            fo.set("node", static_cast<double>(f.node));
            fo.set("site", f.site);
            fa.append(std::move(fo));
        }
        jo.set("fired", std::move(fa));
    }
    JsonValue co = JsonValue::object();
    for (const CounterField &cf : kCounterFields)
        if (std::uint64_t v = r.counters.*cf.member)
            co.set(cf.key, static_cast<double>(v));
    jo.set("counters", std::move(co));
    if (!r.stats.empty()) {
        JsonValue st = JsonValue::object();
        for (const auto &[k, v] : r.stats)
            st.set(k, v);
        jo.set("stats", std::move(st));
    }
    if (include_dumps && !r.watchdogDump.empty())
        jo.set("watchdog_dump", r.watchdogDump);
    return jo;
}

InjectionRecord
injectionRecordFromJson(const JsonValue &v)
{
    InjectionRecord r;
    r.seed = static_cast<std::uint64_t>(v.at("seed").asNumber());
    r.outcome = faultOutcomeFromName(v.at("outcome").asString());
    if (const JsonValue *d = v.find("detail"))
        r.detail = d->asString();
    if (const JsonValue *fa = v.find("fired")) {
        for (std::size_t i = 0; i < fa->size(); ++i) {
            const JsonValue &fo = fa->at(i);
            FiredFault f;
            f.kind =
                faultKindFromName(fo.at("kind").asString().c_str());
            f.at = static_cast<Tick>(fo.at("at_ps").asNumber());
            f.node =
                static_cast<unsigned>(fo.at("node").asNumber());
            f.site = fo.at("site").asString();
            r.faults.push_back(std::move(f));
        }
    }
    if (const JsonValue *co = v.find("counters"))
        for (const CounterField &cf : kCounterFields)
            if (const JsonValue *cv = co->find(cf.key))
                r.counters.*cf.member =
                    static_cast<std::uint64_t>(cv->asNumber());
    if (const JsonValue *st = v.find("stats"))
        for (const std::string &k : st->keys())
            r.stats[k] = st->at(k).asNumber();
    if (const JsonValue *wd = v.find("watchdog_dump"))
        r.watchdogDump = wd->asString();
    return r;
}

JsonValue
CampaignReport::toJson(bool include_dumps) const
{
    JsonValue root = JsonValue::object();
    root.set("campaign", name);
    root.set("interrupted", interrupted);
    root.set("host_seconds", hostSeconds);
    root.set("runs_total", static_cast<double>(runs.size()));

    JsonValue hist = JsonValue::object();
    for (const auto &[k, v] : histogram())
        hist.set(k, static_cast<double>(v));
    root.set("histogram", std::move(hist));

    JsonValue jarr = JsonValue::array();
    for (const InjectionRecord &r : runs)
        jarr.append(injectionRecordToJson(r, include_dumps));
    root.set("runs", std::move(jarr));
    return root;
}

bool
CampaignReport::writeJsonFile(const std::string &path,
                              bool include_dumps) const
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot open %s for writing", path.c_str());
        return false;
    }
    toJson(include_dumps).write(os, 2);
    os << "\n";
    return os.good();
}

namespace {

/** Body of one injected run: the harness's job body with the plan
 *  seeded and the checker attached, classified into a record that
 *  rides back in the payload of a self-contained CustomResult. */
CustomResult
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
    const RunResult &run = jr.run;

    CustomResult cr;
    InjectionRecord rec;
    rec.seed = seed;
    // What fired and, for a run that did not finish, its dump: a
    // panic's included.
    rec.counters = run.faults;
    rec.faults = run.firedFaults;
    rec.watchdogDump = jr.crashReport;

    if (endedInPanic(jr)) {
        // The fault drove the model into a state it recognised as
        // impossible — detected, not silent.
        rec.outcome = FaultOutcome::Detected;
        rec.detail = jr.error;
    } else if (jr.status == JobStatus::TimedOut) {
        // The host stopped the run: a failed injection, not a
        // modelled outcome, and the runner records a timed-out job.
        rec.stats = flattenRunResult(run);
        rec.outcome = FaultOutcome::Failed;
        rec.detail = jr.error;
        cr.ok = false;
        cr.error = jr.error;
    } else {
        rec.stats = flattenRunResult(run);
        bool checker_ran = false, checker_ok = true;
        if (spec.checkTrace) {
            checker_ran = true;
            CheckReport chk =
                checkCoherence(tracer.events(), tracer.dropped());
            checker_ok = chk.ok();
            if (!checker_ok)
                rec.detail = strFormat(
                    "%zu coherence violation(s), first: %s",
                    chk.violations.size(),
                    chk.violations.empty()
                        ? "(truncated trace)"
                        : chk.violations.front().detail.c_str());
        }
        rec.outcome = classifyRun(run, checker_ok, checker_ran);
        if (rec.detail.empty()) {
            if (run.machineCheck)
                rec.detail = run.machineCheckReason;
            else if (run.watchdogTripped)
                rec.detail = run.watchdogReason;
            else if (run.aborted)
                rec.detail = "max_time exhausted";
        }
        cr.stats = rec.stats;
    }
    cr.payload = injectionRecordToJson(rec, true);
    return cr;
}

} // namespace

CampaignReport
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

    SweepReport sr = _runner.run(spec.name, points);

    CampaignReport report;
    report.name = spec.name;
    report.interrupted = sr.interrupted;
    report.hostSeconds = sr.hostSeconds;
    report.runs.reserve(spec.injections);
    for (unsigned i = 0; i < spec.injections; ++i) {
        const JobResult &jr = sr.jobs[i];
        // Cancelled jobs (SIGINT drain) never ran; leaving them out
        // keeps the partial report's histogram honest.
        if (jr.status == JobStatus::Cancelled)
            continue;
        if (!jr.payload.isNull()) {
            // The payload carries the record whether the job ran in
            // this process, a forked worker, or a resumed journal.
            report.runs.push_back(
                injectionRecordFromJson(jr.payload));
        } else {
            // No payload at all: the body threw a host-side error,
            // or the worker died before reporting (crash-class
            // process exit). Record the host failure.
            InjectionRecord rec;
            rec.seed = spec.baseSeed + i;
            rec.outcome = FaultOutcome::Failed;
            rec.detail = jr.error.empty() ? "worker produced no result"
                                          : jr.error;
            if (!jr.exitClass.empty() && jr.exitClass != "ok")
                rec.detail += strFormat(" [exit class: %s]",
                                        jr.exitClass.c_str());
            report.runs.push_back(std::move(rec));
        }
    }
    return report;
}

} // namespace piranha
