#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <utility>

#include "core/piranha.h"

namespace perfbench {

using namespace piranha;

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"p8_oltp", Kind::P8Oltp, 12800, "txns", "P8 x 1 chip"},
        {"p8_dss", Kind::P8Dss, 512, "chunks", "P8 x 1 chip"},
        {"p4x8_oltp", Kind::P4x8Oltp, 4096, "txns", "P4 x 8 chips"},
        {"fig7_sweep", Kind::Fig7Sweep, 1920, "txns per point",
         "P4 and OOO x 1-4 chips"},
    };
    return defs;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : workloadDefs())
        if (name == w.name)
            return &w;
    return nullptr;
}

std::unique_ptr<Workload>
makeGenerator(const WorkloadDef &w, std::uint64_t seed)
{
    if (w.kind == Kind::P8Dss)
        return std::make_unique<DssWorkload>(DssParams{}, seed);
    return std::make_unique<OltpWorkload>(OltpParams{}, seed);
}

SystemConfig
systemConfig(const WorkloadDef &w)
{
    return w.kind == Kind::P4x8Oltp ? configPn(4, 8) : configP8();
}

namespace {

std::uint64_t
perCpu(std::uint64_t total, unsigned cpus)
{
    return std::max<std::uint64_t>(1, total / cpus);
}

/**
 * The Fig. 7 grid: P4 and OOO at one to four chips. Largest systems
 * first: the runner hands out jobs in order, so the long jobs start
 * together and the short ones fill in behind them, which keeps the
 * sweep's wall time from hinging on one late long job.
 */
std::vector<SystemConfig>
fig7Configs()
{
    std::vector<SystemConfig> cfgs;
    for (unsigned chips = 4; chips >= 1; --chips) {
        cfgs.push_back(configPn(4, chips));
        cfgs.push_back(configOOO(chips));
    }
    return cfgs;
}

std::vector<SystemConfig>
configsOf(const WorkloadDef &w)
{
    if (w.kind == Kind::Fig7Sweep)
        return fig7Configs();
    return {systemConfig(w)};
}

/**
 * Construct the generator and system of every configuration @p w runs,
 * as a sample does before its run (a sweep job does the same inside
 * the harness). Returns total and system-only construction seconds;
 * with a tracer, records the spans under @p parent.
 */
std::pair<double, double>
constructAll(const WorkloadDef &w, std::uint64_t seed, Tracer *tr,
             std::uint64_t parent, unsigned run)
{
    double total = 0, systems = 0;
    for (const SystemConfig &cfg : configsOf(w)) {
        Clock::time_point t0 = Clock::now();
        std::unique_ptr<Workload> wl = makeGenerator(w, seed);
        Clock::time_point t1 = Clock::now();
        PiranhaSystem sys(cfg);
        Clock::time_point t2 = Clock::now();
        total += secondsBetween(t0, t2);
        systems += secondsBetween(t1, t2);
        if (tr) {
            double end = tr->now() - secondsSince(t2);
            tr->record("workload.construct", parent, run,
                       end - secondsBetween(t0, t2),
                       end - secondsBetween(t1, t2));
            tr->record("system.construct", parent, run,
                       end - secondsBetween(t1, t2), end);
        }
    }
    return {total, systems};
}

/** The checks every completed simulation run must pass. */
void
checkRun(SampleResult &s, const std::string &who, const RunResult &r,
         std::uint64_t asked)
{
    if (!s.ok)
        return;
    if (r.watchdogTripped) {
        s.ok = false;
        s.failure = who + ": watchdog tripped: " + r.watchdogReason;
    } else if (r.aborted) {
        s.ok = false;
        s.failure = who + ": run aborted (max_time)";
    } else if (r.work < asked) {
        s.ok = false;
        s.failure = strFormat("%s: completed %llu of %llu work units",
                              who.c_str(),
                              static_cast<unsigned long long>(r.work),
                              static_cast<unsigned long long>(asked));
    }
}

SampleResult
runSingle(const WorkloadDef &w, std::uint64_t seed, Tracer *tr,
          unsigned run)
{
    SampleResult s;
    NextTally tally;
    std::uint64_t root = tr ? tr->begin("sample", 0, run) : 0;

    Clock::time_point t0 = Clock::now();
    std::unique_ptr<Workload> wl = makeGenerator(w, seed);
    TracedWorkload *traced = nullptr;
    if (tr) {
        auto tw = std::make_unique<TracedWorkload>(std::move(wl), *tr,
                                                   tally, root, run);
        traced = tw.get();
        wl = std::move(tw);
    }
    Clock::time_point t1 = Clock::now();
    auto sys = std::make_unique<PiranhaSystem>(systemConfig(w));
    Clock::time_point t2 = Clock::now();
    s.setupS = secondsBetween(t0, t2);
    s.constructS = secondsBetween(t1, t2);
    if (tr) {
        double end = tr->now(), start = end - s.setupS;
        std::uint64_t setup = tr->record("setup", root, run, start, end);
        tr->record("workload.construct", setup, run, start,
                   start + secondsBetween(t0, t1));
        tr->record("system.construct", setup, run, end - s.constructS,
                   end);
    }

    std::uint64_t asked = perCpu(w.totalWork, sys->totalCpus());
    std::uint64_t run_span = 0;
    if (tr) {
        run_span = tr->begin("system.run", root, run);
        traced->setParent(run_span);
    }
    double cpu0 = processCpuSeconds();
    Clock::time_point t3 = Clock::now();
    RunResult r = sys->run(*wl, asked);
    s.hostS = secondsSince(t3);
    s.cpuS = processCpuSeconds() - cpu0;
    if (tr)
        tr->end(run_span);

    {
        std::uint64_t snap = tr ? tr->begin("stats.snapshot", root, run) : 0;
        Clock::time_point t4 = Clock::now();
        JsonValue tree = statGroupToJson(sys->stats());
        s.digest = fnv1a(tree.dump(0));
        s.snapshotS = secondsSince(t4);
        if (tr)
            tr->end(snap);
        s.layers.addStatTree(tree);
    }
    s.layers.addRun(r);
    s.instructions = r.instructions;
    checkRun(s, w.name, r, asked * sys->totalCpus());

    // Streams flush their next() tallies when the system drops them.
    sys.reset();
    s.nextCalls = tally.calls.load();
    s.nextSelfS = static_cast<double>(tally.ns.load()) * 1e-9;
    s.runSelfS = s.hostS - s.nextSelfS;
    if (tr)
        tr->end(root);
    return s;
}

struct PaperPoint
{
    const char *name;
    double paper;
};

/**
 * Fig. 7 (paper §5): 4-chip OLTP speedup over one chip, P4 3.0 and
 * OOO 2.6; and a single-chip P4 about 1.5x the single-chip OOO.
 */
constexpr PaperPoint kFig7Paper[] = {
    {"fig7.p4_speedup_4chip", 3.0},
    {"fig7.ooo_speedup_4chip", 2.6},
    {"fig7.p4_over_ooo_1chip", 1.5},
};

SampleResult
runFig7(const WorkloadDef &w, std::uint64_t seed, Tracer *tr,
        unsigned run)
{
    SampleResult s;
    NextTally tally;
    std::uint64_t root = tr ? tr->begin("sample", 0, run) : 0;

    std::vector<SweepPoint> points;
    for (SystemConfig &cfg : fig7Configs()) {
        SweepPoint p;
        p.label = strFormat("%s/%uchip", cfg.name.c_str(), cfg.nodes);
        p.config = std::move(cfg);
        p.workload.name = "OLTP";
        p.workload.totalWork = w.totalWork;
        p.workload.make = [&w, seed] { return makeGenerator(w, seed); };
        points.push_back(std::move(p));
    }

    // Set-up: what the harness builds per job before it runs one,
    // timed here so work moved into construction shows in setup_s.
    {
        std::uint64_t setup = tr ? tr->begin("setup", root, run) : 0;
        std::tie(s.setupS, s.constructS) =
            constructAll(w, seed, tr, setup, run);
        if (tr)
            tr->end(setup);
    }

    std::uint64_t harness = tr ? tr->begin("harness.run", root, run) : 0;
    if (tr) {
        for (SweepPoint &p : points) {
            p.workload.make = [&w, seed, tr, &tally, harness, run,
                               label = p.label] {
                return std::make_unique<TracedWorkload>(
                    makeGenerator(w, seed), *tr, tally, harness, run,
                    "job:" + label);
            };
        }
    }
    SweepOptions opts;
    opts.threads = std::min(hostCpus(), 4u);
    double cpu0 = processCpuSeconds();
    Clock::time_point t2 = Clock::now();
    SweepReport rep = SweepRunner(opts).run(w.name, points);
    s.hostS = secondsSince(t2);
    s.cpuS = processCpuSeconds() - cpu0;
    if (tr)
        tr->end(harness);

    s.harnessWallS = rep.hostSeconds;
    s.threads = rep.threads;
    std::uint64_t snap = tr ? tr->begin("stats.snapshot", root, run) : 0;
    Clock::time_point t3 = Clock::now();
    std::string all;
    for (const JobResult &j : rep.jobs) {
        all += j.label;
        all += j.statTree.dump(0);
    }
    s.digest = fnv1a(all);
    s.snapshotS = secondsSince(t3);
    if (tr)
        tr->end(snap);

    std::map<std::string, double> thr;
    for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
        const JobResult &j = rep.jobs[i];
        s.jobSSum += j.hostSeconds;
        if (j.status != JobStatus::Ok) {
            ++s.jobsFailed;
            if (s.ok) {
                s.ok = false;
                s.failure = j.label + ": job " + jobStatusName(j.status) +
                            ": " + j.error;
            }
            continue;
        }
        unsigned cpus = points[i].config.nodes *
                        points[i].config.cpusPerChip;
        checkRun(s, j.label, j.run, perCpu(w.totalWork, cpus) * cpus);
        s.layers.addStatTree(j.statTree);
        s.layers.addRun(j.run);
        s.instructions += j.run.instructions;
        thr[j.label] = j.run.throughput();
    }

    if (s.ok) {
        double sim[] = {thr["P4/4chip"] / thr["P4/1chip"],
                        thr["OOO/4chip"] / thr["OOO/1chip"],
                        thr["P4/1chip"] / thr["OOO/1chip"]};
        double err = 0;
        for (std::size_t i = 0; i < std::size(kFig7Paper); ++i) {
            s.paperPoints.push_back({kFig7Paper[i].name, sim[i], "x"});
            err += std::fabs(sim[i] - kFig7Paper[i].paper) /
                   kFig7Paper[i].paper;
        }
        s.paperErrPct = 100.0 * err / std::size(kFig7Paper);
    }
    s.nextCalls = tally.calls.load();
    s.nextSelfS = static_cast<double>(tally.ns.load()) * 1e-9;
    s.runSelfS = s.jobSSum - s.nextSelfS;
    if (tr)
        tr->end(root);
    return s;
}

} // namespace

double
measureSetup(const WorkloadDef &w, std::uint64_t seed)
{
    return constructAll(w, seed, nullptr, 0, 0).first;
}

SampleResult
runSample(const WorkloadDef &w, std::uint64_t seed, Tracer *tracer,
          unsigned run)
{
    return w.kind == Kind::Fig7Sweep ? runFig7(w, seed, tracer, run)
                                     : runSingle(w, seed, tracer, run);
}

} // namespace perfbench
