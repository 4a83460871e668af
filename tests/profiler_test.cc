/**
 * @file
 * Tests for the sampling host profiler (src/sim/profiler.h): a zone
 * takes the SIGPROF samples of its scope, nested zones hand the
 * samples back when they end, each thread sees only its own zones, a
 * sharded run's epoch loop counts as kernel time, a job run in a
 * forked worker still carries a host profile, and the process-tier
 * supervisor rides out the signal in its blocking calls.
 *
 * Spins are measured in the calling thread's own CPU time, so the
 * sample counts do not depend on how busy the host is.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <ctime>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>

#include "core/piranha.h"
#include "sim/profiler.h"

namespace piranha {
namespace {

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** Burn @p secs of this thread's CPU time. */
void
spinCpu(double secs)
{
    double t0 = threadCpuSeconds();
    volatile std::uint64_t x = 0;
    while (threadCpuSeconds() - t0 < secs)
        for (int i = 0; i < 1000; ++i)
            x = x + static_cast<std::uint64_t>(i);
}

double
share(const std::map<std::string, double> &snap, const std::string &z)
{
    double total = 0;
    for (const auto &[zone, secs] : snap)
        total += secs;
    auto it = snap.find(z);
    return it == snap.end() || total <= 0 ? 0 : it->second / total;
}

TEST(HostProfiler, ZoneTakesTheSamplesOfItsScope)
{
    prof::reset();
    {
        PIR_PROF(L2);
        spinCpu(0.2);
    }
    std::map<std::string, double> snap = prof::snapshot();
    ASSERT_FALSE(snap.empty());
    EXPECT_GE(share(snap, "l2"), 0.9);
    // The seconds are this thread's CPU time since reset().
    double total = 0;
    for (const auto &[zone, secs] : snap)
        total += secs;
    EXPECT_GE(total, 0.19);
}

TEST(HostProfiler, NestedZoneHandsSamplesBack)
{
    prof::reset();
    {
        PIR_PROF(Core);
        {
            PIR_PROF(L1);
            spinCpu(0.1);
        }
        EXPECT_EQ(prof::detail::currentZone.load(), prof::Zone::Core);
        spinCpu(0.2);
    }
    EXPECT_EQ(prof::detail::currentZone.load(), prof::Zone::Other);
    std::map<std::string, double> snap = prof::snapshot();
    ASSERT_FALSE(snap.empty());
    EXPECT_GE(share(snap, "l1"), 0.15);
    EXPECT_GE(share(snap, "core"), 0.5);
}

TEST(HostProfiler, ThreadsSeeOnlyTheirOwnZones)
{
    std::map<std::string, double> snaps[2];
    auto body = [&snaps](unsigned i, prof::Zone z) {
        prof::reset();
        {
            prof::ScopedZone zone(z);
            spinCpu(0.2);
        }
        snaps[i] = prof::snapshot();
    };
    std::thread a(body, 0, prof::Zone::Mem);
    std::thread b(body, 1, prof::Zone::Ics);
    a.join();
    b.join();
    ASSERT_FALSE(snaps[0].empty());
    ASSERT_FALSE(snaps[1].empty());
    EXPECT_GE(share(snaps[0], "mem"), 0.9);
    EXPECT_EQ(snaps[0].count("ics"), 0u);
    EXPECT_GE(share(snaps[1], "ics"), 0.9);
    EXPECT_EQ(snaps[1].count("mem"), 0u);
}

// Shard workers run the epoch loop (barriers, mailbox drains, queue
// dispatch) in the kernel zone, as the serial run loop does, so a
// sharded run's CPU time does not fall into "other".
TEST(HostProfiler, ShardedRunCountsItsEpochLoopAsKernel)
{
    SystemConfig cfg = configPn(4, 2);
    cfg.engine = EngineKind::Parallel;
    cfg.shards = 2;
    OltpWorkload wl;
    PiranhaSystem sys(cfg);
    RunResult r = sys.run(wl, 100); // ~0.5 s of CPU on a 4-CPU host
    ASSERT_EQ(r.shardsUsed, 2u);
    double total = 0;
    for (const auto &[zone, secs] : r.profile)
        total += secs;
    ASSERT_GE(total, 0.1);
    EXPECT_GT(share(r.profile, "kernel"), 0);
    EXPECT_LT(share(r.profile, "other"), 0.25);
}

// A forked worker inherits the SIGPROF handler but not the interval
// timer, so the run start inside the worker must arm it again.
TEST(HostProfiler, ProcessTierJobCarriesAProfile)
{
    SweepPoint pt;
    pt.label = "P8/OLTP";
    pt.config = configP8();
    pt.workload = WorkloadDecl{
        "OLTP", [] { return std::make_unique<OltpWorkload>(); }, 2000};

    SweepOptions opts;
    opts.exec = ExecTier::Process;
    opts.threads = 1;
    SweepReport rep = SweepRunner(opts).run("profiled", {pt});
    ASSERT_EQ(rep.jobs.size(), 1u);
    const JobResult &jr = rep.jobs[0];
    ASSERT_EQ(jr.status, JobStatus::Ok) << jr.error;
    ASSERT_GE(jr.hostSeconds, 0.2);
    EXPECT_FALSE(jr.run.profile.empty());
    EXPECT_GT(jr.run.profile.count("kernel") + jr.run.profile.count("l1"),
              0u);
}

// The sampler's signal can reach the process-tier supervisor inside
// any blocking call. Aim SIGPROF at the supervisor's thread every half
// millisecond through a whole process-tier sweep: poll() returns
// early, read() and waitpid() restart (SA_RESTART), and every job
// still comes back with the thread tier's stat tree.
TEST(HostProfiler, SupervisorRidesOutSignals)
{
    prof::reset(); // installs the handler
    std::vector<SweepPoint> pts;
    for (unsigned i = 0; i < 4; ++i) {
        SweepPoint pt;
        pt.label = "job" + std::to_string(i);
        pt.config = configP8();
        pt.workload = WorkloadDecl{
            "OLTP", [] { return std::make_unique<OltpWorkload>(); },
            200 + 40 * i};
        pts.push_back(std::move(pt));
    }
    SweepOptions ref_opts;
    ref_opts.threads = 1;
    SweepReport ref = SweepRunner(ref_opts).run("ref", pts);

    std::atomic<unsigned> sent{0};
    pthread_t supervisor = pthread_self();
    // A jthread: joined on every exit path, a throwing run included.
    std::jthread pester([&](std::stop_token st) {
        while (!st.stop_requested()) {
            pthread_kill(supervisor, SIGPROF);
            sent.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
    });
    SweepOptions opts;
    opts.exec = ExecTier::Process;
    opts.threads = 2;
    SweepReport rep = SweepRunner(opts).run("signalled", pts);
    pester.request_stop();
    pester.join();

    EXPECT_GE(sent.load(), 20u);
    ASSERT_EQ(rep.jobs.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        ASSERT_EQ(rep.jobs[i].status, JobStatus::Ok)
            << rep.jobs[i].label << ": " << rep.jobs[i].error;
        EXPECT_EQ(rep.jobs[i].statTree.dump(0), ref.jobs[i].statTree.dump(0))
            << rep.jobs[i].label;
    }
}

} // namespace
} // namespace piranha
