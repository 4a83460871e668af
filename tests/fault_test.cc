/**
 * @file
 * Tests for the fault-injection subsystem (src/fault/): per-category
 * outcome classes, campaign determinism, the zero-fault bit-identity
 * guarantee, the forward-progress watchdog, and the sweep harness's
 * no-retry rule and cancellation machinery the campaigns ride on.
 *
 * The seeded expectations (seed N of workload W lands in outcome O)
 * are deterministic by construction: a campaign run is a pure
 * function of (config, plan seed), so these pin exact behaviour, not
 * statistics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/piranha.h"

namespace piranha {
namespace {

WorkloadFactory
oltpFactory()
{
    return [] { return std::make_unique<OltpWorkload>(); };
}

CampaignSpec
smallCampaign(FaultKind kind, unsigned count, std::uint64_t work,
              unsigned nodes = 1)
{
    CampaignSpec spec;
    spec.name = "test";
    spec.config = configP8(nodes);
    spec.workload = WorkloadDecl{"OLTP", oltpFactory(), work};
    spec.injections = 1;
    spec.planTemplate.count = count;
    spec.planTemplate.kinds = {kind};
    return spec;
}

/** @p j's outcome name, for failure messages. */
const char *
outcomeOf(const JobResult &j)
{
    return j.outcome ? faultOutcomeName(*j.outcome) : "(no outcome)";
}

SweepOptions
serialOpts()
{
    SweepOptions opts;
    opts.threads = 1;
    opts.captureStatTree = false;
    return opts;
}

// ---------------------------------------------------------------------
// Zero-fault bit-identity: carrying a fault plan that never fires must
// not perturb the simulation in any observable way.

TEST(FaultIdentity, DormantPlanIsStatTreeIdentical)
{
    auto run_one = [](SystemConfig cfg) {
        PiranhaSystem sys(cfg);
        OltpWorkload wl;
        RunResult r = sys.run(wl, 24);
        return std::make_pair(flattenRunResult(r),
                              statGroupToJson(sys.stats()).dump(0));
    };

    auto plain = run_one(configPn(2));

    // A plan that draws zero faults: no injector is even built.
    SystemConfig zero = configPn(2);
    zero.faults.count = 0;
    auto dormant = run_one(zero);
    EXPECT_EQ(plain.first, dormant.first);
    EXPECT_EQ(plain.second, dormant.second);

    // Armed plan whose window opens long after the run ends: the
    // injector and every hook are live, but nothing fires — the hooks
    // themselves must be non-perturbing.
    SystemConfig armed = configPn(2);
    armed.faults.count = 1;
    armed.faults.windowStart = 1000ull * 1000 * 1000 * ticksPerUs;
    armed.faults.windowEnd = armed.faults.windowStart + ticksPerUs;
    auto never = run_one(armed);
    EXPECT_EQ(plain.first, never.first);
    EXPECT_EQ(plain.second, never.second);
}

// Read history is the fault injector's to keep: without a plan the
// backing store indexes only lines a run wrote, and an armed plan
// records every line read as a memory fault site on top.
TEST(FaultIdentity, OnlyAnArmedPlanRecordsReadOnlyLines)
{
    struct Footprint
    {
        std::size_t touched;
        std::size_t stored;
    };
    auto run_one = [](SystemConfig cfg) {
        PiranhaSystem sys(cfg);
        DssWorkload wl;
        sys.run(wl, 2);
        const BackingStore &mem = sys.chip(0).memory();
        return Footprint{mem.touchedLines(), mem.storedLines()};
    };

    Footprint plain = run_one(configP8());
    EXPECT_EQ(plain.touched, plain.stored);

    SystemConfig armed = configP8();
    armed.faults.count = 1;
    armed.faults.windowStart = 1000ull * 1000 * 1000 * ticksPerUs;
    armed.faults.windowEnd = armed.faults.windowStart + ticksPerUs;
    Footprint recorded = run_one(armed);
    EXPECT_EQ(recorded.stored, plain.stored);
    EXPECT_GT(recorded.touched, recorded.stored);
}

TEST(FaultIdentity, ZeroFaultCampaignMatchesPlainRun)
{
    SystemConfig cfg = configPn(2);
    PiranhaSystem sys(cfg);
    OltpWorkload wl;
    RunResult plain = sys.run(wl, 24);

    CampaignSpec spec;
    spec.name = "zero";
    spec.config = configPn(2);
    spec.workload = WorkloadDecl{"OLTP", oltpFactory(),
                                 24 * sys.totalCpus()};
    spec.injections = 1;
    spec.planTemplate.count = 0;
    SweepReport rep = CampaignRunner(serialOpts()).run(spec);
    ASSERT_EQ(rep.jobs.size(), 1u);
    EXPECT_EQ(rep.jobs[0].outcome, FaultOutcome::NotFired);
    EXPECT_EQ(rep.jobs[0].stats, flattenRunResult(plain));
}

// ---------------------------------------------------------------------
// Watchdog / max-cycle guard at the PiranhaSystem::run entry point.

TEST(Watchdog, MaxTimeAbortProducesDiagnosticDump)
{
    SystemConfig cfg = configPn(2);
    PiranhaSystem sys(cfg);
    OltpWorkload wl;
    // Far more work than fits in the simulated-time bound: the guard
    // must stop the run and attach the diagnostic dump instead of
    // spinning until the ctest timeout.
    RunResult r = sys.run(wl, 1u << 20, 5 * ticksPerUs);
    EXPECT_TRUE(r.aborted);
    EXPECT_FALSE(r.watchdogTripped);
    EXPECT_NE(r.watchdogDump.find("max_time"), std::string::npos);
    EXPECT_NE(r.watchdogDump.find("cores:"), std::string::npos);
}

// ---------------------------------------------------------------------
// One pinned seed per outcome category. Classification precedence and
// the per-category recovery machinery are all exercised end-to-end.

TEST(FaultOutcomes, EccCorrectableCorrectsAndScrubs)
{
    CampaignSpec spec = smallCampaign(FaultKind::MemDataFlip, 1, 2048);
    spec.baseSeed = 4;
    SweepReport rep = CampaignRunner(serialOpts()).run(spec);
    ASSERT_EQ(rep.jobs.size(), 1u);
    const JobResult &r = rep.jobs[0];
    EXPECT_EQ(r.outcome, FaultOutcome::Corrected)
        << outcomeOf(r) << ": " << r.error;
    EXPECT_GE(r.run.faults.eccCorrectedData, 1u);
    EXPECT_GE(r.run.faults.scrubWrites, 1u);
    EXPECT_EQ(r.run.faults.machineChecks, 0u);
}

TEST(FaultOutcomes, EccUncorrectableRaisesMachineCheck)
{
    CampaignSpec spec =
        smallCampaign(FaultKind::MemDataDoubleFlip, 8, 2048);
    spec.baseSeed = 1;
    SweepReport rep = CampaignRunner(serialOpts()).run(spec);
    ASSERT_EQ(rep.jobs.size(), 1u);
    const JobResult &r = rep.jobs[0];
    EXPECT_EQ(r.outcome, FaultOutcome::Detected)
        << outcomeOf(r) << ": " << r.error;
    EXPECT_GE(r.run.faults.eccUncorrectable, 1u);
    EXPECT_GE(r.run.faults.machineChecks, 1u);
    EXPECT_NE(r.error.find("uncorrectable ECC"), std::string::npos);
}

TEST(FaultOutcomes, LostInterChipPacketRecoversByRetransmit)
{
    CampaignSpec spec = smallCampaign(FaultKind::NetDrop, 4, 512, 2);
    spec.baseSeed = 1;
    SweepReport rep = CampaignRunner(serialOpts()).run(spec);
    ASSERT_EQ(rep.jobs.size(), 1u);
    const JobResult &r = rep.jobs[0];
    EXPECT_EQ(r.outcome, FaultOutcome::Recovered)
        << outcomeOf(r) << ": " << r.error;
    EXPECT_GE(r.run.faults.netDropped, 1u);
    EXPECT_GE(r.run.faults.netRetransmits, 1u);
    EXPECT_EQ(r.run.faults.netDropped, r.run.faults.netRetransmits);
}

TEST(FaultOutcomes, L1ParityRecoversByRefetch)
{
    CampaignSpec spec = smallCampaign(FaultKind::L1DataFlip, 24, 1024);
    spec.baseSeed = 1;
    SweepReport rep = CampaignRunner(serialOpts()).run(spec);
    ASSERT_EQ(rep.jobs.size(), 1u);
    const JobResult &r = rep.jobs[0];
    EXPECT_EQ(r.outcome, FaultOutcome::Recovered)
        << outcomeOf(r) << ": " << r.error;
    EXPECT_GE(r.run.faults.l1ParityRefetch, 1u);
}

TEST(FaultOutcomes, L2ParityRecoversByRefetch)
{
    CampaignSpec spec = smallCampaign(FaultKind::L2DataFlip, 24, 1024);
    spec.baseSeed = 1;
    SweepReport rep = CampaignRunner(serialOpts()).run(spec);
    ASSERT_EQ(rep.jobs.size(), 1u);
    const JobResult &r = rep.jobs[0];
    EXPECT_EQ(r.outcome, FaultOutcome::Recovered)
        << outcomeOf(r) << ": " << r.error;
    EXPECT_GE(r.run.faults.l2ParityRefetch, 1u);
}

TEST(FaultOutcomes, DroppedIcsMessageHangsAndWatchdogDumps)
{
    CampaignSpec spec = smallCampaign(FaultKind::IcsDrop, 1, 256);
    spec.baseSeed = 3;
    SweepReport rep = CampaignRunner(serialOpts()).run(spec);
    ASSERT_EQ(rep.jobs.size(), 1u);
    const JobResult &r = rep.jobs[0];
    EXPECT_EQ(r.outcome, FaultOutcome::Hang)
        << outcomeOf(r) << ": " << r.error;
    // The wedge was caught by the watchdog's dump, not a timeout: the
    // dump names the cause and shows the per-core completion state
    // and the fault that did it.
    EXPECT_NE(r.crashReport.find("diagnostic dump"),
              std::string::npos);
    EXPECT_NE(r.crashReport.find("cores:"), std::string::npos);
    EXPECT_NE(r.crashReport.find("ics_drop"), std::string::npos);
    EXPECT_GE(r.run.faults.icsDropped, 1u);
}

// Seed 10 of the pinned scripts/ci.sh faults campaign: a dropped ICS
// message leaves an L1 and its L2 bank disagreeing, and a later
// forward panics. A panic is a legitimate Detected outcome, and its
// record must still name every fault that fired before it.
TEST(FaultOutcomes, PanicDetectedRunKeepsFiredFaults)
{
    CampaignSpec spec = smallCampaign(FaultKind::IcsDrop, 2, 1024);
    spec.planTemplate.kinds = {
        FaultKind::MemDataFlip, FaultKind::MemDataDoubleFlip,
        FaultKind::MemCheckFlip, FaultKind::L1DataFlip,
        FaultKind::L2DataFlip,   FaultKind::IcsDrop,
        FaultKind::IcsDelay,     FaultKind::MemStall};
    spec.baseSeed = 10;
    SweepReport rep = CampaignRunner(serialOpts()).run(spec);
    ASSERT_EQ(rep.jobs.size(), 1u);
    const JobResult &r = rep.jobs[0];
    EXPECT_EQ(r.outcome, FaultOutcome::Detected)
        << outcomeOf(r) << ": " << r.error;
    EXPECT_EQ(r.error.rfind("panic: ", 0), 0u) << r.error;
    ASSERT_EQ(r.run.firedFaults.size(), 2u);
    EXPECT_EQ(r.run.firedFaults[0].kind, FaultKind::IcsDrop);
    EXPECT_EQ(r.run.firedFaults[0].at, Tick{31'208'082});
    EXPECT_EQ(r.run.firedFaults[1].kind, FaultKind::MemDataDoubleFlip);
    EXPECT_EQ(r.run.firedFaults[1].at, Tick{47'663'288});
    EXPECT_EQ(r.run.faults.fired, 2u);
    EXPECT_EQ(r.run.faults.icsDropped, 1u);
    // The record shows the state the panic left, as a hang's does.
    EXPECT_EQ(r.crashReport.rfind("=== diagnostic dump", 0), 0u);
    EXPECT_NE(r.crashReport.find("busy L2 lines"), std::string::npos);
}

// Seed 8 of the pinned one-chip scripts/ci.sh campaign under
// --check-trace: the checker runs on every run that comes back, but a
// hang is the watchdog's end, so the job's error names the watchdog,
// not what the checker made of the wedged run's trace.
TEST(FaultOutcomes, CheckedHangNamesTheWatchdog)
{
    CampaignSpec spec = smallCampaign(FaultKind::IcsDrop, 2, 1024);
    spec.planTemplate.kinds = {
        FaultKind::MemDataFlip, FaultKind::MemDataDoubleFlip,
        FaultKind::MemCheckFlip, FaultKind::L1DataFlip,
        FaultKind::L2DataFlip,   FaultKind::IcsDrop,
        FaultKind::IcsDelay,     FaultKind::MemStall};
    spec.baseSeed = 8;
    spec.checkTrace = true;
    SweepReport rep = CampaignRunner(serialOpts()).run(spec);
    ASSERT_EQ(rep.jobs.size(), 1u);
    const JobResult &r = rep.jobs[0];
    EXPECT_EQ(r.outcome, FaultOutcome::Hang)
        << outcomeOf(r) << ": " << r.error;
    EXPECT_EQ(r.error.rfind("watchdog tripped: ", 0), 0u) << r.error;
    EXPECT_NE(r.crashReport.find("diagnostic dump"), std::string::npos);
}

// Seed 11 of the pinned two-chip scripts/ci.sh campaign: a directory
// bit flip leaves a pointer to node 512 in a two-node system. The
// decode drops it and raises a machine check naming the line, where
// the run used to panic in the network on the route to node 512.
TEST(FaultOutcomes, OutOfRangeDirectoryPointerMachineChecks)
{
    CampaignSpec spec = smallCampaign(FaultKind::MemDirFlip, 2, 1024, 2);
    spec.planTemplate.kinds.clear(); // drawn from every kind
    spec.baseSeed = 11;
    SweepReport rep = CampaignRunner(serialOpts()).run(spec);
    ASSERT_EQ(rep.jobs.size(), 1u);
    const JobResult &r = rep.jobs[0];
    EXPECT_EQ(r.outcome, FaultOutcome::Detected)
        << outcomeOf(r) << ": " << r.error;
    EXPECT_EQ(r.error.rfind("machine check: directory pointer 512 out "
                            "of range",
                            0),
              0u)
        << r.error;
    EXPECT_GE(r.run.faults.machineChecks, 1u);
}

// campaign_main --timeout stops an injection on either tier: the run
// polls the runner's abort check, and the job is a timed-out, failed
// injection with the timeout as its error, never a modelled hang.
TEST(Campaign, HostTimeoutFailsTheInjectionOnBothTiers)
{
    CampaignSpec spec = smallCampaign(FaultKind::MemStall, 1, 8000);
    spec.maxTime = 10'000 * 1000 * ticksPerUs; // far past the work
    for (ExecTier tier : {ExecTier::Thread, ExecTier::Process}) {
        SCOPED_TRACE(tier == ExecTier::Thread ? "thread" : "process");
        SweepOptions opts = serialOpts();
        opts.exec = tier;
        opts.jobTimeoutSec = 0.05;
        auto t0 = std::chrono::steady_clock::now();
        SweepReport rep = CampaignRunner(opts).run(spec);
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        ASSERT_EQ(rep.jobs.size(), 1u);
        const JobResult &r = rep.jobs[0];
        EXPECT_EQ(r.outcome, FaultOutcome::Failed)
            << outcomeOf(r) << ": " << r.error;
        EXPECT_EQ(r.status, JobStatus::TimedOut);
        EXPECT_EQ(r.error, "host wall-clock timeout");
        // The whole run takes seconds; the abort comes within a few
        // thousand events of the deadline.
        EXPECT_LT(secs, 1.0);
    }
}

// Same wedge driven directly through PiranhaSystem::run, proving the
// watchdog is wired into the entry point itself (not just campaigns).
TEST(Watchdog, WedgedRunTripsInsteadOfSpinning)
{
    SystemConfig cfg = configP8();
    cfg.faults.seed = 3;
    cfg.faults.count = 1;
    cfg.faults.kinds = {FaultKind::IcsDrop};
    PiranhaSystem sys(cfg);
    OltpWorkload wl;
    RunResult r = sys.run(wl, 32);
    EXPECT_TRUE(r.aborted);
    EXPECT_TRUE(r.watchdogTripped);
    EXPECT_FALSE(r.watchdogReason.empty());
    EXPECT_NE(r.watchdogDump.find("watchdog"), std::string::npos);
    ASSERT_EQ(r.firedFaults.size(), 1u);
    EXPECT_EQ(r.firedFaults[0].kind, FaultKind::IcsDrop);
}

// ---------------------------------------------------------------------
// Campaign determinism and reporting.

TEST(Campaign, HistogramReproducesAcrossRuns)
{
    CampaignSpec spec;
    spec.name = "repro";
    spec.config = configP8();
    spec.workload = WorkloadDecl{"OLTP", oltpFactory(), 256};
    spec.injections = 6;
    spec.planTemplate.count = 1; // kinds empty: drawn from all
    SweepReport a = CampaignRunner(serialOpts()).run(spec);
    SweepOptions par = serialOpts();
    par.threads = 3; // determinism must survive the thread pool
    SweepReport b = CampaignRunner(par).run(spec);

    ASSERT_EQ(a.jobs.size(), 6u);
    ASSERT_EQ(b.jobs.size(), 6u);
    EXPECT_EQ(outcomeHistogram(a), outcomeHistogram(b));
    for (unsigned i = 0; i < 6; ++i) {
        EXPECT_EQ(a.jobs[i].outcome, b.jobs[i].outcome) << "run " << i;
        EXPECT_EQ(a.jobs[i].run.faults.fired, b.jobs[i].run.faults.fired);
        EXPECT_EQ(a.jobs[i].stats, b.jobs[i].stats) << "run " << i;
        EXPECT_EQ(a.jobs[i].error, b.jobs[i].error) << "run " << i;
    }
}

TEST(Campaign, JsonReportIsCompleteAndWritable)
{
    CampaignSpec spec = smallCampaign(FaultKind::MemCheckFlip, 4, 512);
    spec.injections = 2;
    SweepReport rep = CampaignRunner(serialOpts()).run(spec);

    // The campaign's report is the sweep's, and each job carries its
    // injection's record in a `faults` object.
    std::string path = "fault_campaign_report_test.json";
    ASSERT_TRUE(rep.writeJsonFile(path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());
    JsonValue j = parseJson(buf.str());
    EXPECT_EQ(j.at("sweep").asString(), "test");
    const JsonValue &jobs = j.at("jobs");
    ASSERT_EQ(jobs.size(), 2u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JsonValue &faults = jobs.at(i).at("faults");
        EXPECT_EQ(faults.at("plan_seed").asNumber(), double(1 + i));
        EXPECT_EQ(faults.at("outcome").asString(),
                  outcomeOf(rep.jobs[i]));
        EXPECT_NE(faults.find("counters"), nullptr);
        JobResult back = jobResultFromJson(jobs.at(i));
        EXPECT_EQ(back.outcome, rep.jobs[i].outcome);
        EXPECT_EQ(back.planSeed, rep.jobs[i].planSeed);
    }
}

// ---------------------------------------------------------------------
// Sweep-harness machinery the campaigns ride on (compiled both ways).

TEST(SweepRetry, DeterministicFailuresAreNeverRetried)
{
    auto calls = std::make_shared<std::atomic<int>>(0);
    SweepPoint pt;
    pt.label = "deterministic";
    pt.custom = [calls](const AbortCheck &) -> JobResult {
        calls->fetch_add(1);
        throw std::runtime_error("same universe, same bug");
    };
    SweepOptions opts = serialOpts();
    opts.maxAttempts = 5;
    SweepReport rep = SweepRunner(opts).run("retry", {pt});
    ASSERT_EQ(rep.jobs.size(), 1u);
    EXPECT_EQ(rep.jobs[0].status, JobStatus::Failed);
    EXPECT_EQ(rep.jobs[0].attempts, 1u);
    EXPECT_EQ(calls->load(), 1);
}

TEST(SweepRetry, BackoffDoublesUpToTenSeconds)
{
    // The process tier's backoff: base * 2^(attempt-1), capped at
    // 10 s, and defined for any attempt count (no shift past the
    // word).
    const double expect[] = {0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 10.0};
    for (unsigned k = 1; k <= 8; ++k)
        EXPECT_DOUBLE_EQ(retryBackoff(0.1, k), expect[k - 1]) << k;
    EXPECT_DOUBLE_EQ(retryBackoff(0.1, 32), 10.0);
    EXPECT_DOUBLE_EQ(retryBackoff(0.1, 33), 10.0);
    EXPECT_DOUBLE_EQ(retryBackoff(0.1, 40), 10.0);
    EXPECT_DOUBLE_EQ(retryBackoff(0.1, ~0u), 10.0);
    EXPECT_EQ(retryBackoff(0, 40), 0.0);
}

TEST(SweepCancel, GracefulDrainMarksQueuedJobsCancelled)
{
    auto cancel = std::make_shared<std::atomic<bool>>(false);
    std::vector<SweepPoint> pts(3);
    for (unsigned i = 0; i < 3; ++i)
        pts[i].label = "job" + std::to_string(i);
    // The first job "receives the SIGINT" while running; with one
    // worker thread the remaining queued jobs must drain as
    // Cancelled without executing.
    auto ran = std::make_shared<std::atomic<int>>(0);
    pts[0].custom = [cancel, ran](const AbortCheck &) {
        ran->fetch_add(1);
        cancel->store(true);
        return JobResult{};
    };
    pts[1].custom = pts[2].custom = [ran](const AbortCheck &) {
        ran->fetch_add(1);
        return JobResult{};
    };
    SweepOptions opts = serialOpts();
    opts.cancel = cancel.get();
    SweepReport rep = SweepRunner(opts).run("drain", pts);

    ASSERT_EQ(rep.jobs.size(), 3u);
    EXPECT_EQ(rep.jobs[0].status, JobStatus::Ok);
    EXPECT_EQ(rep.jobs[1].status, JobStatus::Cancelled);
    EXPECT_EQ(rep.jobs[2].status, JobStatus::Cancelled);
    EXPECT_EQ(rep.jobs[1].label, "job1");
    EXPECT_TRUE(rep.interrupted);
    EXPECT_EQ(ran->load(), 1);

    // The partial report is still a complete JSON document.
    JsonValue j = rep.toJson(false);
    std::string s = j.dump(0);
    EXPECT_NE(s.find("\"interrupted\":true"), std::string::npos);
    EXPECT_NE(s.find("\"jobs_cancelled\":2"), std::string::npos);
}

} // namespace
} // namespace piranha
