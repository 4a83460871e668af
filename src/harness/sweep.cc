#include "harness/sweep.h"

#include <cmath>
#include <fstream>
#include <stdexcept>

#include "sim/logging.h"

namespace piranha {

SweepSpec &
SweepSpec::addConfig(SystemConfig cfg)
{
    configs.push_back(std::move(cfg));
    return *this;
}

SweepSpec &
SweepSpec::addWorkload(std::string wl_name, WorkloadFactory make,
                       std::uint64_t total_work)
{
    workloads.push_back(
        WorkloadDecl{std::move(wl_name), std::move(make), total_work});
    return *this;
}

SweepSpec &
SweepSpec::addPoint(SweepPoint pt)
{
    extraPoints.push_back(std::move(pt));
    return *this;
}

std::vector<SweepPoint>
SweepSpec::expand() const
{
    std::vector<SweepPoint> pts;
    pts.reserve(configs.size() * workloads.size() + extraPoints.size());
    for (const SystemConfig &cfg : configs) {
        for (const WorkloadDecl &wl : workloads) {
            SweepPoint pt;
            pt.label = cfg.name + "/" + wl.name;
            pt.config = cfg;
            pt.workload = wl;
            pt.maxTime = maxTime;
            pts.push_back(std::move(pt));
        }
    }
    for (const SweepPoint &pt : extraPoints)
        pts.push_back(pt);
    return pts;
}

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
      case JobStatus::Ok: return "ok";
      case JobStatus::Failed: return "failed";
      case JobStatus::TimedOut: return "timed_out";
      case JobStatus::Cancelled: return "cancelled";
    }
    return "?";
}

JobStatus
jobStatusFromName(const std::string &name)
{
    for (JobStatus s : {JobStatus::Ok, JobStatus::Failed,
                        JobStatus::TimedOut, JobStatus::Cancelled})
        if (name == jobStatusName(s))
            return s;
    throw std::runtime_error("unknown job status \"" + name + "\"");
}

std::map<std::string, double>
flattenRunResult(const RunResult &r)
{
    std::map<std::string, double> m;
    m["exec_time_ps"] = static_cast<double>(r.execTime);
    m["work"] = static_cast<double>(r.work);
    m["throughput"] = r.throughput();
    m["busy_frac"] = r.busyFrac;
    m["l2_hit_stall_frac"] = r.l2HitStallFrac;
    m["l2_miss_stall_frac"] = r.l2MissStallFrac;
    m["idle_frac"] = r.idleFrac;
    m["instructions"] = r.instructions;
    m["rdram_page_hit_rate"] = r.rdramPageHitRate;
    m["miss_l2_hit"] = r.misses.l2Hit;
    m["miss_l2_fwd"] = r.misses.l2Fwd;
    m["miss_mem_local"] = r.misses.memLocal;
    m["miss_mem_remote"] = r.misses.memRemote;
    m["miss_remote_dirty"] = r.misses.remoteDirty;
    m["events_executed"] = static_cast<double>(r.eventsExecuted);
    // Engine- and datapath-invariant event count (kernel events +
    // inline fast-path hits): identical across serial/parallel
    // engines and any shard count, so it stays in the comparable map.
    m["events_equivalent"] = static_cast<double>(r.eventsEquivalent);
    return m;
}

std::map<std::string, double>
flattenRunResultComparable(const RunResult &r)
{
    std::map<std::string, double> m = flattenRunResult(r);
    m.erase("events_executed");
    return m;
}

const JobResult *
SweepReport::job(const std::string &label) const
{
    for (const JobResult &j : jobs)
        if (j.label == label)
            return &j;
    return nullptr;
}

unsigned
SweepReport::count(JobStatus s) const
{
    unsigned n = 0;
    for (const JobResult &j : jobs)
        n += j.status == s;
    return n;
}

JsonValue
jobResultToJson(const JobResult &j, bool include_stat_tree)
{
    JsonValue jo = JsonValue::object();
    jo.set("label", j.label);
    jo.set("status", jobStatusName(j.status));
    jo.set("config", j.run.config);
    jo.set("workload", j.run.workload);
    jo.set("host_seconds", j.hostSeconds);
    if (j.attempts > 1)
        jo.set("attempts", static_cast<double>(j.attempts));
    jo.set("events_per_host_sec", j.eventsPerHostSec);
    if (!j.error.empty())
        jo.set("error", j.error);
    // Execution-tier metadata (never part of the bit-identity
    // comparison set, which is label + status + stats + stat_tree).
    if (!j.exitClass.empty())
        jo.set("exit_class", j.exitClass);
    if (j.fromJournal)
        jo.set("resumed", true);
    if (j.transient)
        jo.set("transient", true);
    if (j.run.engineFallback)
        jo.set("engine_fallback", true);
    if (!j.crashReport.empty())
        jo.set("crash_report", j.crashReport);
    if (j.status == JobStatus::Ok) {
        JsonValue stats = JsonValue::object();
        for (const auto &[k, v] : j.stats)
            stats.set(k, v);
        jo.set("stats", std::move(stats));
        // Host-side instrumentation lives outside "stats" so that
        // bit-identity comparisons over the stats map ignore it.
        if (j.run.fastEventedHits || j.run.fastInlineHits ||
            j.run.l1RespondEvents) {
            JsonValue fp = JsonValue::object();
            fp.set("inline_hits",
                   static_cast<double>(j.run.fastInlineHits));
            fp.set("evented_hits",
                   static_cast<double>(j.run.fastEventedHits));
            fp.set("l1_respond_events",
                   static_cast<double>(j.run.l1RespondEvents));
            jo.set("fastpath", std::move(fp));
        }
        if (!j.run.profile.empty()) {
            JsonValue hp = JsonValue::object();
            for (const auto &[zone, sec] : j.run.profile)
                hp.set(zone, sec);
            jo.set("host_profile", std::move(hp));
        }
        if (include_stat_tree && !j.statTree.isNull())
            jo.set("stat_tree", j.statTree);
    }
    if (!j.payload.isNull())
        jo.set("payload", j.payload);
    return jo;
}

JobResult
jobResultFromJson(const JsonValue &v)
{
    auto num = [&v](const char *k, double dflt) {
        const JsonValue *f = v.find(k);
        return f && f->isNumber() ? f->asNumber() : dflt;
    };
    auto str = [&v](const char *k) -> std::string {
        const JsonValue *f = v.find(k);
        return f && f->isString() ? f->asString() : std::string();
    };
    auto flag = [&v](const char *k) {
        const JsonValue *f = v.find(k);
        return f && f->isBool() && f->asBool();
    };

    // Schema checks: a record can pass its checksum or frame and
    // still carry values no JobResult field can hold.
    const JsonValue *label = v.find("label");
    const JsonValue *status = v.find("status");
    if (!label || !label->isString() || !status || !status->isString())
        throw std::runtime_error(
            "job result: label or status is not a string");
    double attempts = 1;
    if (const JsonValue *a = v.find("attempts")) {
        attempts = a->isNumber() ? a->asNumber() : 0;
        if (!(attempts >= 1 && attempts < 4294967296.0 &&
              attempts == std::floor(attempts)))
            throw std::runtime_error(
                "job result: attempts is not an integer in [1, 2^32)");
    }

    JobResult j;
    j.label = label->asString();
    j.status = jobStatusFromName(status->asString());
    j.run.config = str("config");
    j.run.workload = str("workload");
    j.hostSeconds = num("host_seconds", 0);
    j.attempts = static_cast<unsigned>(attempts);
    j.eventsPerHostSec = num("events_per_host_sec", 0);
    j.error = str("error");
    j.exitClass = str("exit_class");
    j.transient = flag("transient");
    j.run.engineFallback = flag("engine_fallback");
    j.crashReport = str("crash_report");
    // "resumed" is a property of the run that loaded the journal, not
    // of the recorded result — the loader sets fromJournal itself.
    if (const JsonValue *stats = v.find("stats"); stats &&
        stats->isObject()) {
        for (size_t i = 0; i < stats->size(); ++i)
            j.stats[stats->keys()[i]] = stats->items()[i].asNumber();
        auto it = j.stats.find("events_executed");
        if (it != j.stats.end())
            j.run.eventsExecuted =
                static_cast<std::uint64_t>(it->second);
        it = j.stats.find("events_equivalent");
        if (it != j.stats.end())
            j.run.eventsEquivalent =
                static_cast<std::uint64_t>(it->second);
    }
    if (const JsonValue *fp = v.find("fastpath"); fp && fp->isObject()) {
        auto fpnum = [fp](const char *k) -> std::uint64_t {
            const JsonValue *f = fp->find(k);
            return f ? static_cast<std::uint64_t>(f->asNumber()) : 0;
        };
        j.run.fastInlineHits = fpnum("inline_hits");
        j.run.fastEventedHits = fpnum("evented_hits");
        j.run.l1RespondEvents = fpnum("l1_respond_events");
    }
    if (const JsonValue *hp = v.find("host_profile"); hp &&
        hp->isObject()) {
        for (size_t i = 0; i < hp->size(); ++i)
            j.run.profile[hp->keys()[i]] = hp->items()[i].asNumber();
    }
    if (const JsonValue *st = v.find("stat_tree"))
        j.statTree = *st;
    if (const JsonValue *pl = v.find("payload"))
        j.payload = *pl;
    return j;
}

JsonValue
SweepReport::toJson(bool include_stat_tree) const
{
    JsonValue root = JsonValue::object();
    root.set("sweep", name);
    root.set("threads", static_cast<double>(threads));
    root.set("exec", exec);
    root.set("host_seconds", hostSeconds);
    root.set("interrupted", interrupted);
    root.set("jobs_total", static_cast<double>(jobs.size()));
    root.set("jobs_failed",
             static_cast<double>(count(JobStatus::Failed) +
                                 count(JobStatus::TimedOut)));
    root.set("jobs_cancelled",
             static_cast<double>(count(JobStatus::Cancelled)));

    unsigned resumed = 0;
    std::map<std::string, unsigned> exit_classes;
    for (const JobResult &j : jobs) {
        resumed += j.fromJournal;
        if (!j.exitClass.empty())
            ++exit_classes[j.exitClass];
    }
    if (resumed)
        root.set("jobs_resumed", static_cast<double>(resumed));
    if (!exit_classes.empty()) {
        JsonValue ec = JsonValue::object();
        for (const auto &[k, v] : exit_classes)
            ec.set(k, static_cast<double>(v));
        root.set("exit_classes", std::move(ec));
    }

    JsonValue jarr = JsonValue::array();
    for (const JobResult &j : jobs)
        jarr.append(jobResultToJson(j, include_stat_tree));
    root.set("jobs", std::move(jarr));
    return root;
}

bool
SweepReport::writeJsonFile(const std::string &path,
                           bool include_stat_tree) const
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot open %s for writing", path.c_str());
        return false;
    }
    toJson(include_stat_tree).write(os, 2);
    os << "\n";
    return os.good();
}

} // namespace piranha
