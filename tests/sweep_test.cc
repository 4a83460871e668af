/**
 * @file
 * Tests for the experiment-sweep harness (src/harness/): grid
 * expansion, the determinism regression the thread-pool runner relies
 * on (one EventQueue universe per job), exception isolation, how a
 * job records the way its run ended, host wall-clock timeouts, and
 * the machine-readable sweep report.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/piranha.h"
#include "panic_workload.h"
#include "stats/json.h"

namespace piranha {
namespace {

WorkloadFactory
oltpFactory(std::uint64_t seed = 1)
{
    return [seed] { return std::make_unique<OltpWorkload>(
                        OltpParams{}, seed); };
}

SweepPoint
smallPoint(std::string label, unsigned cpus = 2,
           std::uint64_t work = 48)
{
    SweepPoint pt;
    pt.label = std::move(label);
    pt.config = configPn(cpus);
    pt.workload = WorkloadDecl{"OLTP", oltpFactory(), work};
    return pt;
}

TEST(SweepSpec, ExpandsGridInDeclarationOrder)
{
    SweepSpec spec("grid");
    spec.addConfig(configPn(1)).addConfig(configPn(2));
    spec.addWorkload("OLTP", oltpFactory(), 16)
        .addWorkload("DSS",
                     [] { return std::make_unique<DssWorkload>(); }, 4);
    spec.addPoint(smallPoint("extra"));

    std::vector<SweepPoint> pts = spec.expand();
    ASSERT_EQ(pts.size(), 5u);
    EXPECT_EQ(pts[0].label, "P1/OLTP");
    EXPECT_EQ(pts[1].label, "P1/DSS");
    EXPECT_EQ(pts[2].label, "P2/OLTP");
    EXPECT_EQ(pts[3].label, "P2/DSS");
    EXPECT_EQ(pts[4].label, "extra");
    EXPECT_EQ(pts[2].workload.totalWork, 16u);
}

/**
 * The determinism regression: the same SimConfig + seed must produce
 * bit-identical final stats on every execution — serial, repeated,
 * or on the thread-pool runner. This is the property that makes
 * host-parallel sweeps safe.
 */
TEST(SweepRunner, SameConfigAndSeedIsBitIdentical)
{
    SweepRunner runner(SweepOptions{.threads = 1});

    JobResult a = runner.runJob(smallPoint("a"));
    JobResult b = runner.runJob(smallPoint("b"));
    ASSERT_EQ(a.status, JobStatus::Ok);
    ASSERT_EQ(b.status, JobStatus::Ok);

    // Exact (not approximate) equality, across every named stat and
    // the full serialized StatGroup tree.
    EXPECT_EQ(a.run.execTime, b.run.execTime);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.statTree.dump(), b.statTree.dump());
}

TEST(SweepRunner, ThreadPoolDoesNotPerturbResults)
{
    JobResult serial =
        SweepRunner(SweepOptions{.threads = 1}).runJob(smallPoint("s"));
    ASSERT_EQ(serial.status, JobStatus::Ok);

    // Four copies of the same universe racing on four host threads:
    // every one must reproduce the serial result bit-exactly.
    std::vector<SweepPoint> pts;
    for (int i = 0; i < 4; ++i)
        pts.push_back(smallPoint(strFormat("copy%d", i)));
    SweepReport rep = SweepRunner(SweepOptions{.threads = 4})
                          .run("determinism", pts);
    EXPECT_EQ(rep.threads, 4u);
    ASSERT_EQ(rep.jobs.size(), 4u);
    for (const JobResult &j : rep.jobs) {
        ASSERT_EQ(j.status, JobStatus::Ok) << j.label << ": " << j.error;
        EXPECT_EQ(j.run.execTime, serial.run.execTime) << j.label;
        EXPECT_EQ(j.stats, serial.stats) << j.label;
        EXPECT_EQ(j.statTree.dump(), serial.statTree.dump()) << j.label;
    }
}

TEST(SweepRunner, DifferentSeedsDiffer)
{
    SweepRunner runner(SweepOptions{.threads = 1});
    SweepPoint p1 = smallPoint("seed1");
    SweepPoint p2 = smallPoint("seed2");
    p2.workload.make = oltpFactory(2);
    JobResult a = runner.runJob(p1);
    JobResult b = runner.runJob(p2);
    ASSERT_EQ(a.status, JobStatus::Ok);
    ASSERT_EQ(b.status, JobStatus::Ok);
    EXPECT_NE(a.statTree.dump(), b.statTree.dump());
}

TEST(SweepRunner, CrashingJobIsIsolated)
{
    std::vector<SweepPoint> pts;
    pts.push_back(smallPoint("good0", 1, 16));
    SweepPoint bad = smallPoint("bad", 1, 16);
    bad.workload.make = []() -> std::unique_ptr<Workload> {
        throw std::runtime_error("deliberate config crash");
    };
    pts.push_back(bad);
    SweepPoint null_wl = smallPoint("null", 1, 16);
    null_wl.workload.make = [] { return std::unique_ptr<Workload>(); };
    pts.push_back(null_wl);
    pts.push_back(smallPoint("good1", 1, 16));

    SweepReport rep = SweepRunner(SweepOptions{.threads = 2})
                          .run("isolation", pts);
    ASSERT_EQ(rep.jobs.size(), 4u);
    EXPECT_EQ(rep.jobs[0].status, JobStatus::Ok);
    EXPECT_EQ(rep.jobs[1].status, JobStatus::Failed);
    EXPECT_NE(rep.jobs[1].error.find("deliberate config crash"),
              std::string::npos);
    EXPECT_EQ(rep.jobs[2].status, JobStatus::Failed);
    EXPECT_EQ(rep.jobs[3].status, JobStatus::Ok);
    EXPECT_EQ(rep.count(JobStatus::Failed), 2u);
    EXPECT_EQ(rep.count(JobStatus::Ok), 2u);
}

/**
 * A job is ok only when its run finished. Each way a run can stop
 * short is a failed job that names its end and keeps its dump, and
 * none of them stops the sweep or disturbs a healthy neighbour. The
 * early ends come from plans tests/fault_test.cc pins.
 */
TEST(SweepRunner, RunThatDidNotFinishIsAFailedJob)
{
    auto faulted = [](std::string label, FaultKind kind, unsigned count,
                      std::uint64_t seed, std::uint64_t work) {
        SweepPoint pt;
        pt.label = std::move(label);
        pt.config = configP8();
        pt.config.faults.seed = seed;
        pt.config.faults.count = count;
        pt.config.faults.kinds = {kind};
        pt.workload = WorkloadDecl{"OLTP", oltpFactory(), work};
        return pt;
    };
    SweepPoint healthy = smallPoint("healthy");
    SweepPoint max_time = smallPoint("max_time", 2, 1u << 20);
    max_time.maxTime = 5 * ticksPerUs;
    SweepPoint panic = smallPoint("panic");
    panic.workload.make = [] { return std::make_unique<PanicWorkload>(); };
    std::vector<SweepPoint> pts = {
        healthy,
        // FaultOutcomes.DroppedIcsMessageHangsAndWatchdogDumps
        faulted("watchdog", FaultKind::IcsDrop, 1, 3, 256),
        max_time,
        // FaultOutcomes.EccUncorrectableRaisesMachineCheck
        faulted("machine_check", FaultKind::MemDataDoubleFlip, 8, 1, 2048),
        panic};

    SweepReport rep =
        SweepRunner(SweepOptions{.threads = 2}).run("ends", pts);
    ASSERT_EQ(rep.jobs.size(), pts.size());
    EXPECT_EQ(rep.count(JobStatus::Ok), 1u);
    EXPECT_EQ(rep.count(JobStatus::Failed), 4u);
    EXPECT_DOUBLE_EQ(rep.toJson(false).at("jobs_failed").asNumber(), 4.0);

    const JobResult &ok = rep.jobs[0];
    ASSERT_EQ(ok.status, JobStatus::Ok) << ok.error;
    EXPECT_TRUE(ok.error.empty());
    EXPECT_TRUE(ok.crashReport.empty());
    JobResult solo = SweepRunner(SweepOptions{.threads = 1}).runJob(healthy);
    EXPECT_EQ(ok.statTree.dump(0), solo.statTree.dump(0));

    const JobResult &wd = rep.jobs[1];
    EXPECT_EQ(wd.status, JobStatus::Failed);
    EXPECT_EQ(wd.error.rfind("watchdog tripped: ", 0), 0u) << wd.error;
    EXPECT_NE(wd.crashReport.find("diagnostic dump"), std::string::npos);

    const JobResult &mt = rep.jobs[2];
    EXPECT_EQ(mt.status, JobStatus::Failed);
    EXPECT_EQ(mt.error, "max_time exhausted");
    EXPECT_NE(mt.crashReport.find("diagnostic dump"), std::string::npos);

    const JobResult &mc = rep.jobs[3];
    EXPECT_EQ(mc.status, JobStatus::Failed);
    EXPECT_EQ(mc.error.rfind("machine check: ", 0), 0u) << mc.error;
    EXPECT_NE(mc.error.find("uncorrectable ECC"), std::string::npos)
        << mc.error;

    const JobResult &pn = rep.jobs[4];
    EXPECT_EQ(pn.status, JobStatus::Failed);
    EXPECT_EQ(pn.error.rfind("panic: ", 0), 0u) << pn.error;
    EXPECT_NE(pn.error.find("bad op kind"), std::string::npos) << pn.error;
    EXPECT_NE(pn.crashReport.find("diagnostic dump"), std::string::npos);

    // The dump rides in the report as the job's crash_report; a failed
    // job carries no stats for a renderer to read.
    JsonValue jobs = rep.toJson(false).at("jobs");
    for (std::size_t i = 1; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs.at(i).find("stats"), nullptr) << i;
        if (i != 3) { // a machine check takes no dump
            EXPECT_NE(jobs.at(i).find("crash_report"), nullptr) << i;
        }
    }

    // Only the panic left no run behind. A machine check raised in the
    // event that finishes the last core stops nothing (aborted stays
    // false), and its run still came back.
    for (std::size_t i = 0; i < rep.jobs.size(); ++i)
        EXPECT_EQ(endedInPanic(rep.jobs[i]), i == 4) << i;
    JobResult late_mc;
    late_mc.status = JobStatus::Failed;
    late_mc.run.machineCheck = true;
    EXPECT_FALSE(endedInPanic(late_mc));
}

// A panic inside a custom body (a litmus program, a `cmi` point) ends
// that job as a panic inside a simulation point does, not the sweep.
TEST(SweepRunner, PanicInCustomBodyFailsOnlyThatJob)
{
    SweepPoint custom_ok;
    custom_ok.label = "custom_ok";
    custom_ok.custom = [](const AbortCheck &) {
        JobResult jr;
        jr.stats["answer"] = 42;
        return jr;
    };
    SweepPoint custom_panic;
    custom_panic.label = "custom_panic";
    custom_panic.custom = [](const AbortCheck &) -> JobResult {
        panic("custom body lost line %#x", 0x1040u);
    };
    std::vector<SweepPoint> pts = {smallPoint("sim0", 1, 16), custom_panic,
                                   custom_ok, smallPoint("sim1", 1, 16)};

    SweepReport rep =
        SweepRunner(SweepOptions{.threads = 2}).run("custom_panic", pts);
    ASSERT_EQ(rep.jobs.size(), pts.size());
    const JobResult &pn = rep.jobs[1];
    EXPECT_EQ(pn.status, JobStatus::Failed);
    EXPECT_EQ(pn.error, "panic: custom body lost line 0x1040");
    for (std::size_t i : {0u, 2u, 3u})
        EXPECT_EQ(rep.jobs[i].status, JobStatus::Ok)
            << rep.jobs[i].label << ": " << rep.jobs[i].error;
    EXPECT_EQ(rep.jobs[2].stats.at("answer"), 42.0);
}

TEST(SweepRunner, HostTimeoutStopsRunawayJob)
{
    // Far more work than a few milliseconds of host time can simulate.
    SweepPoint pt = smallPoint("runaway", 8, 100000);
    SweepOptions opts;
    opts.threads = 1;
    opts.jobTimeoutSec = 0.02;
    JobResult jr = SweepRunner(opts).runJob(pt);
    EXPECT_EQ(jr.status, JobStatus::TimedOut);
    EXPECT_FALSE(jr.error.empty());
}

/**
 * The thread tier's only timeout is the cooperative abort hook: a
 * runaway simulation between two small ones ends TimedOut on its own
 * thread, the small jobs are untouched (same stat trees as a run with
 * no timeout), and the report carries the thread tier's keys only.
 */
TEST(SweepRunner, RunawayJobTimesOutWithoutDisturbingItsNeighbours)
{
    // Tiny caches and one transaction keep each small job near a
    // millisecond (about 15 ms under ThreadSanitizer), far inside the
    // 50 ms budget.
    auto tiny = [](std::string label, unsigned cpus) {
        SweepPoint pt = smallPoint(std::move(label), cpus, 1);
        pt.config.chip.l1d.sizeBytes = 4096;
        pt.config.chip.l1i.sizeBytes = 4096;
        pt.config.chip.l2.bankBytes = 8192;
        return pt;
    };
    std::vector<SweepPoint> pts = {tiny("small0", 1),
                                   smallPoint("runaway", 8, 100000),
                                   tiny("small1", 2)};
    SweepOptions plain;
    plain.threads = 1;
    SweepReport ref = SweepRunner(plain).run(
        "ref", {pts[0], pts[2]});
    ASSERT_EQ(ref.count(JobStatus::Ok), 2u);

    for (unsigned threads : {1u, 3u}) {
        SCOPED_TRACE(threads);
        SweepOptions opts;
        opts.threads = threads;
        opts.jobTimeoutSec = 0.05;
        SweepReport rep = SweepRunner(opts).run("runaway", pts);
        ASSERT_EQ(rep.jobs.size(), 3u);
        EXPECT_EQ(rep.threads, threads);
        EXPECT_EQ(rep.jobs[1].status, JobStatus::TimedOut);
        EXPECT_FALSE(rep.jobs[1].error.empty());
        for (std::size_t i : {0u, 2u}) {
            ASSERT_EQ(rep.jobs[i].status, JobStatus::Ok)
                << rep.jobs[i].label << ": " << rep.jobs[i].error;
            EXPECT_EQ(rep.jobs[i].statTree.dump(0),
                      ref.jobs[i / 2].statTree.dump(0));
        }

        JsonValue root = rep.toJson(false);
        EXPECT_EQ(root.keys(),
                  (std::vector<std::string>{
                      "sweep", "threads", "exec", "host_seconds",
                      "interrupted", "jobs_total", "jobs_failed",
                      "jobs_cancelled", "jobs"}));
        const std::set<std::string> job_keys = {
            "label", "status", "config", "workload", "host_seconds",
            "events_per_host_sec", "error", "stats", "fastpath",
            "host_profile"};
        for (std::size_t i = 0; i < root.at("jobs").size(); ++i)
            for (const std::string &k : root.at("jobs").at(i).keys())
                EXPECT_TRUE(job_keys.count(k)) << "job " << i << ": "
                                               << k;
    }
}

TEST(SweepRunner, ProgressLineFormat)
{
    JobResult ok;
    ok.label = "P8/OLTP";
    ok.hostSeconds = 1.234;
    EXPECT_EQ(progressLine(3, 16, ok), "[3/16] P8/OLTP: ok (1.23s host)");

    // A process-tier job whose worker died on both attempts.
    JobResult crashed;
    crashed.label = "P1/DSS";
    crashed.status = JobStatus::Failed;
    crashed.exitClass = "signal";
    crashed.attempts = 2;
    crashed.hostSeconds = 0.5;
    crashed.error = "worker killed by signal 11 (Segmentation fault)";
    EXPECT_EQ(progressLine(16, 16, crashed),
              "[16/16] P1/DSS: failed (0.50s host, signal, attempt 2) - "
              "worker killed by signal 11 (Segmentation fault)");
}

/**
 * Configurations that force the parallel intra-run engine back to the
 * serial engine (fault plans pin the event schedule) used to say so
 * only on stderr; the fallback is now recorded per job in the report.
 */
TEST(SweepReport, EngineFallbackIsRecordedInJson)
{
    SweepPoint faulted = smallPoint("faulted", 2, 16);
    faulted.config.faults.count = 1;
    std::vector<SweepPoint> pts = {smallPoint("plain", 2, 16),
                                   faulted};

    SweepOptions opts;
    opts.threads = 1;
    opts.engine = EngineKind::Parallel;
    SweepReport rep = SweepRunner(opts).run("fallback", pts);

    ASSERT_EQ(rep.jobs.size(), 2u);
    EXPECT_FALSE(rep.jobs[0].run.engineFallback);
    EXPECT_TRUE(rep.jobs[1].run.engineFallback);

    JsonValue root = rep.toJson(false);
    EXPECT_EQ(root.at("jobs").at(0).find("engine_fallback"), nullptr);
    EXPECT_TRUE(root.at("jobs").at(1).at("engine_fallback").asBool());
}

TEST(SweepReport, JsonIsParseableAndComplete)
{
    std::vector<SweepPoint> pts;
    pts.push_back(smallPoint("p0", 1, 16));
    pts.push_back(smallPoint("p1", 2, 16));
    SweepReport rep =
        SweepRunner(SweepOptions{.threads = 2}).run("mini", pts);

    JsonValue v = parseJson(rep.toJson().dump());
    EXPECT_EQ(v.at("sweep").asString(), "mini");
    EXPECT_DOUBLE_EQ(v.at("jobs_total").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(v.at("jobs_failed").asNumber(), 0.0);
    ASSERT_EQ(v.at("jobs").size(), 2u);

    const JsonValue &j0 = v.at("jobs").at(0);
    EXPECT_EQ(j0.at("label").asString(), "p0");
    EXPECT_EQ(j0.at("status").asString(), "ok");
    EXPECT_EQ(j0.at("config").asString(), "P1");
    EXPECT_GT(j0.at("stats").at("exec_time_ps").asNumber(), 0.0);
    EXPECT_GT(j0.at("stats").at("instructions").asNumber(), 0.0);
    // Full stat tree rides along by default...
    EXPECT_EQ(j0.at("stat_tree").at("name").asString(), "system");

    // ...and can be omitted.
    SweepOptions lean;
    lean.threads = 1;
    lean.captureStatTree = false;
    SweepReport rep2 = SweepRunner(lean).run("mini", pts);
    JsonValue v2 = parseJson(rep2.toJson().dump());
    EXPECT_EQ(v2.at("jobs").at(0).find("stat_tree"), nullptr);

    // Label lookup.
    EXPECT_NE(rep.job("p1"), nullptr);
    EXPECT_EQ(rep.job("absent"), nullptr);
}

TEST(SweepReport, WritesJsonFile)
{
    std::vector<SweepPoint> pts;
    pts.push_back(smallPoint("p0", 1, 8));
    SweepReport rep =
        SweepRunner(SweepOptions{.threads = 1}).run("filetest", pts);

    std::string path =
        testing::TempDir() + "/piranha_sweep_report.json";
    ASSERT_TRUE(rep.writeJsonFile(path));
    std::ifstream is(path);
    std::stringstream buf;
    buf << is.rdbuf();
    JsonValue v = parseJson(buf.str());
    EXPECT_EQ(v.at("sweep").asString(), "filetest");
}

} // namespace
} // namespace piranha
