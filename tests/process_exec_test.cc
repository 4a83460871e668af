/**
 * @file
 * Tests for the process-isolated execution tier (DESIGN.md §14): the
 * fork-per-job supervisor, worker exit classification, crash-class
 * retries (and none for a job that reports, a panicking one
 * included), hung-worker reclamation, crash reports, and resuming a
 * killed supervisor from its job journal. The supervisor
 * itself is fault-injected via ProcessChaos — workers that segfault,
 * get SIGKILLed, exit nonzero, hang through SIGTERM, or write garbage
 * instead of a result frame.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/piranha.h"
#include "harness/journal.h"
#include "harness/process_exec.h"
#include "panic_workload.h"

namespace piranha {
namespace {

namespace fs = std::filesystem;

/** Unique scratch directory, removed on scope exit. */
struct TempDir
{
    fs::path path;

    TempDir()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "piranha_procexec_XXXXXX")
                .string();
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (!::mkdtemp(buf.data()))
            throw std::runtime_error("mkdtemp failed");
        path = buf.data();
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }

    std::string dir() const { return path.string(); }
};

SweepPoint
simPoint(std::string label, unsigned cpus = 2,
         std::uint64_t work = 48)
{
    SweepPoint pt;
    pt.label = std::move(label);
    pt.config = configPn(cpus);
    pt.workload = WorkloadDecl{
        "OLTP", [] { return std::make_unique<OltpWorkload>(); },
        work};
    return pt;
}

std::vector<SweepPoint>
simPoints(unsigned n)
{
    std::vector<SweepPoint> pts;
    for (unsigned i = 0; i < n; ++i)
        pts.push_back(simPoint("job" + std::to_string(i)));
    return pts;
}

/** Identity key over the fields the bit-identity contract covers. */
std::string
identityKey(const SweepReport &r)
{
    std::string key;
    for (const JobResult &j : r.jobs) {
        key += j.label;
        key += '|';
        key += jobStatusName(j.status);
        for (const auto &[k, v] : j.stats) {
            key += '|';
            key += k;
            key += '=';
            key += JsonValue(v).dump(0);
        }
        key += '|';
        key += j.statTree.dump(0);
        key += '\n';
    }
    return key;
}

TEST(ProcessTier, MatchesThreadTierBitIdentically)
{
    std::vector<SweepPoint> pts = simPoints(4);
    SweepReport thread_rep =
        SweepRunner(SweepOptions{.threads = 1}).run("pt", pts);

    SweepOptions opts;
    opts.threads = 2;
    opts.exec = ExecTier::Process;
    SweepReport proc_rep = SweepRunner(opts).run("pt", pts);

    EXPECT_EQ(proc_rep.exec, "process");
    EXPECT_EQ(thread_rep.exec, "thread");
    ASSERT_EQ(proc_rep.jobs.size(), pts.size());
    for (const JobResult &j : proc_rep.jobs) {
        EXPECT_EQ(j.status, JobStatus::Ok);
        EXPECT_EQ(j.exitClass, "ok");
        EXPECT_EQ(j.attempts, 1u);
    }
    // The forked workers' pipe round trip reproduces in-process
    // results exactly — stats AND the full stat tree.
    EXPECT_EQ(identityKey(proc_rep), identityKey(thread_rep));
}

TEST(ProcessChaos, ClassifiesEveryWayAWorkerCanDie)
{
    std::vector<SweepPoint> pts = simPoints(5);
    SweepOptions opts;
    opts.threads = 2;
    opts.exec = ExecTier::Process;
    opts.jobTimeoutSec = 0.3;
    opts.killGraceSec = 0.1;
    opts.chaos.byIndex = {{0, WorkerFault::Segv},
                          {1, WorkerFault::Kill},
                          {2, WorkerFault::ExitNonZero},
                          {3, WorkerFault::Hang},
                          {4, WorkerFault::Garbage}};
    SweepReport rep = SweepRunner(opts).run("chaos", pts);

    ASSERT_EQ(rep.jobs.size(), 5u);
    EXPECT_EQ(rep.jobs[0].exitClass, "signal");
    EXPECT_EQ(rep.jobs[1].exitClass, "oom"); // SIGKILL we didn't send
    EXPECT_EQ(rep.jobs[2].exitClass, "exit");
    EXPECT_EQ(rep.jobs[3].exitClass, "timeout");
    EXPECT_EQ(rep.jobs[4].exitClass, "protocol");
    for (unsigned i : {0u, 1u, 2u, 4u})
        EXPECT_EQ(rep.jobs[i].status, JobStatus::Failed) << i;
    EXPECT_EQ(rep.jobs[3].status, JobStatus::TimedOut);
    // The supervisor survived all five deaths: that IS the isolation
    // property the process tier exists for.
}

TEST(ProcessChaos, HungWorkerIsReclaimedWithinTheTimeoutBudget)
{
    std::vector<SweepPoint> pts = simPoints(2);
    SweepOptions opts;
    opts.threads = 2;
    opts.exec = ExecTier::Process;
    opts.jobTimeoutSec = 0.3;
    opts.killGraceSec = 0.2;
    opts.chaos.byIndex = {{0, WorkerFault::Hang}};

    auto t0 = std::chrono::steady_clock::now();
    SweepReport rep = SweepRunner(opts).run("hang", pts);
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

    // The worker ignores SIGTERM; only the SIGKILL escalation can
    // reclaim it. Budget: timeout + 2 * grace + scheduling slack.
    EXPECT_EQ(rep.jobs[0].status, JobStatus::TimedOut);
    EXPECT_EQ(rep.jobs[0].exitClass, "timeout");
    EXPECT_LT(elapsed, 10.0);
    // The healthy job is untouched.
    EXPECT_EQ(rep.jobs[1].status, JobStatus::Ok);
}

TEST(ProcessChaos, CrashClassExitsAreRetriedAndRecover)
{
    std::vector<SweepPoint> pts = simPoints(3);
    SweepOptions opts;
    opts.threads = 1; // deterministic launch order
    opts.exec = ExecTier::Process;
    opts.jobTimeoutSec = 0.5;
    opts.killGraceSec = 0.1;
    opts.maxAttempts = 2;
    // Chaos fires on the first attempt only and the retry runs clean,
    // so the final report must be fully Ok.
    opts.chaos.byIndex = {{0, WorkerFault::Segv},
                          {1, WorkerFault::Hang}};
    SweepReport rep = SweepRunner(opts).run("retry", pts);

    for (const JobResult &j : rep.jobs)
        EXPECT_EQ(j.status, JobStatus::Ok) << j.label;
    EXPECT_EQ(rep.jobs[0].attempts, 2u);
    EXPECT_EQ(rep.jobs[1].attempts, 2u);
    EXPECT_EQ(rep.jobs[2].attempts, 1u);

    // Recovered runs are bit-identical to a never-faulted sweep:
    // chaos only costs attempts, never results.
    SweepReport clean =
        SweepRunner(SweepOptions{.threads = 1}).run("retry", pts);
    EXPECT_EQ(identityKey(rep), identityKey(clean));
}

TEST(ProcessChaos, DeterministicFailureIsNotRetried)
{
    SweepPoint pt;
    pt.label = "always_fails";
    pt.custom = [](const AbortCheck &) -> CustomResult {
        throw std::runtime_error("deterministic bug");
    };

    SweepOptions opts;
    opts.threads = 1;
    opts.exec = ExecTier::Process;
    opts.maxAttempts = 3;
    SweepReport rep = SweepRunner(opts).run("det", {pt});

    // The worker reported the failure in a valid result frame, which
    // is authoritative: a deterministic universe fails identically
    // every time, so retrying would only waste host time.
    ASSERT_EQ(rep.jobs[0].status, JobStatus::Failed);
    EXPECT_EQ(rep.jobs[0].attempts, 1u);
    EXPECT_EQ(rep.jobs[0].exitClass, "ok");
    EXPECT_EQ(rep.jobs[0].error, "deterministic bug");
}

// A panic is caught in the worker like any failed run: its result
// frame comes back and is final, so the worker is not a crash and the
// job is not retried.
TEST(ProcessChaos, PanickingJobFailsInItsResultFrame)
{
    SweepPoint pt = simPoint("panic");
    pt.workload.make = [] { return std::make_unique<PanicWorkload>(); };

    SweepOptions opts;
    opts.threads = 1;
    opts.exec = ExecTier::Process;
    opts.maxAttempts = 2;
    SweepReport rep = SweepRunner(opts).run("panic", {pt});

    ASSERT_EQ(rep.jobs.size(), 1u);
    const JobResult &j = rep.jobs[0];
    EXPECT_EQ(j.status, JobStatus::Failed);
    EXPECT_EQ(j.attempts, 1u);
    EXPECT_EQ(j.exitClass, "ok");
    EXPECT_EQ(j.error.rfind("panic: ", 0), 0u) << j.error;
    EXPECT_NE(j.error.find("bad op kind"), std::string::npos) << j.error;
    EXPECT_NE(j.crashReport.find("diagnostic dump"), std::string::npos);
}

TEST(ProcessChaos, SegfaultingWorkerLeavesACrashReport)
{
    std::vector<SweepPoint> pts = simPoints(1);
    SweepOptions opts;
    opts.threads = 1;
    opts.exec = ExecTier::Process;
    opts.chaos.byIndex = {{0, WorkerFault::Segv}};
    SweepReport rep = SweepRunner(opts).run("crashrep", pts);

    ASSERT_EQ(rep.jobs[0].status, JobStatus::Failed);
    EXPECT_EQ(rep.jobs[0].exitClass, "signal");
    // The dying worker's signal handler got a PJX1 frame out before
    // re-raising (the PR 5 watchdog diagnostic-dump path).
    EXPECT_NE(rep.jobs[0].crashReport.find("signal"),
              std::string::npos);
    // And the classification survives the report JSON round trip.
    JobResult rt = jobResultFromJson(jobResultToJson(rep.jobs[0]));
    EXPECT_EQ(rt.exitClass, "signal");
    EXPECT_EQ(rt.crashReport, rep.jobs[0].crashReport);
}

TEST(ProcessTier, CancelDrainsQueuedJobs)
{
    std::vector<SweepPoint> pts = simPoints(3);
    std::atomic<bool> cancel{true}; // pre-set: everything drains
    SweepOptions opts;
    opts.threads = 1;
    opts.exec = ExecTier::Process;
    opts.cancel = &cancel;
    SweepReport rep = SweepRunner(opts).run("drain", pts);

    EXPECT_TRUE(rep.interrupted);
    for (const JobResult &j : rep.jobs)
        EXPECT_EQ(j.status, JobStatus::Cancelled);
}

/**
 * The crash-safe contract end to end: kill the supervisor mid-sweep
 * (deterministically, via chaos), then --resume from the journal and
 * get an aggregate report bit-identical to an uninterrupted run.
 */
TEST(SupervisorResume, KilledSupervisorResumesBitIdentically)
{
    std::vector<SweepPoint> pts = simPoints(4);
    SweepReport clean =
        SweepRunner(SweepOptions{.threads = 1}).run("supkill", pts);

    TempDir tmp;
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: a supervisor that dies right after its 2nd result.
        SweepOptions opts;
        opts.threads = 1;
        opts.exec = ExecTier::Process;
        opts.journalDir = tmp.dir();
        opts.chaos.supervisorExitAfter = 2;
        SweepRunner(opts).run("supkill", pts);
        ::_exit(7); // chaos must have killed us before this
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 42); // the chaos exit, not exit(7)

    // The journal survived the kill with exactly two durable results.
    JobJournal::Recovery rec = JobJournal::load(tmp.dir());
    EXPECT_EQ(rec.done.size(), 2u);

    SweepOptions opts;
    opts.threads = 1;
    opts.exec = ExecTier::Process;
    opts.journalDir = tmp.dir();
    opts.resume = true;
    SweepReport resumed = SweepRunner(opts).run("supkill", pts);

    unsigned from_journal = 0;
    for (const JobResult &j : resumed.jobs) {
        EXPECT_EQ(j.status, JobStatus::Ok);
        if (j.fromJournal)
            ++from_journal;
    }
    EXPECT_EQ(from_journal, 2u);
    EXPECT_EQ(identityKey(resumed), identityKey(clean));
}

} // namespace
} // namespace piranha
