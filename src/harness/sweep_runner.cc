#include "harness/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <ostream>
#include <thread>

#include "harness/journal.h"
#include "harness/process_exec.h"
#include "sim/logging.h"
#include "stats/json_writer.h"

namespace piranha {

namespace {

using HostClock = std::chrono::steady_clock;

double
secondsSince(HostClock::time_point t0)
{
    return std::chrono::duration<double>(HostClock::now() - t0).count();
}

} // namespace

unsigned
SweepRunner::effectiveThreads(size_t njobs) const
{
    unsigned t = _opts.threads;
    if (t == 0) {
        t = std::thread::hardware_concurrency();
        if (t == 0)
            t = 1;
    }
    return static_cast<unsigned>(
        std::min<size_t>(t, std::max<size_t>(njobs, 1)));
}

double
retryBackoff(double base_sec, unsigned attempt)
{
    // 2^63 times any base above 1e-18 s is already past the cap.
    unsigned shift = std::min(attempt - 1, 63u);
    return std::min(10.0, base_sec * static_cast<double>(
                                         std::uint64_t(1) << shift));
}

JobResult
SweepRunner::runJob(const SweepPoint &pt) const
{
    JobResult jr;
    unsigned max_attempts = std::max(1u, _opts.maxAttempts);
    HostClock::time_point t_first = HostClock::now();
    bool transient = false;
    for (unsigned attempt = 1;; ++attempt) {
        transient = false;
        jr = runJobOnce(pt, transient);
        jr.attempts = attempt;
        if (jr.status != JobStatus::Failed || !transient ||
            attempt >= max_attempts)
            break;
        if (_opts.retryBackoffSec > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(
                retryBackoff(_opts.retryBackoffSec, attempt)));
    }
    // Wire metadata for the process supervisor: it retries transient
    // failures across worker processes, with its own backoff.
    jr.transient = jr.status == JobStatus::Failed && transient;
    // Host cost of the job includes failed attempts and backoff.
    jr.hostSeconds = secondsSince(t_first);
    if (jr.status == JobStatus::Ok && jr.hostSeconds > 0)
        jr.eventsPerHostSec =
            static_cast<double>(jr.run.eventsExecuted) / jr.hostSeconds;
    return jr;
}

JobResult
SweepRunner::runJobOnce(const SweepPoint &pt, bool &transient) const
{
    JobResult jr;
    jr.label = pt.label;
    HostClock::time_point t0 = HostClock::now();

    std::function<bool()> abort_check;
    if (_opts.jobTimeoutSec > 0) {
        HostClock::time_point deadline =
            t0 + std::chrono::duration_cast<HostClock::duration>(
                     std::chrono::duration<double>(_opts.jobTimeoutSec));
        abort_check = [deadline] { return HostClock::now() >= deadline; };
    }

    try {
        if (pt.custom) {
            CustomResult cr = pt.custom();
            if (!cr.ok) {
                jr.status = JobStatus::Failed;
                jr.error = cr.error.empty() ? "custom job failed"
                                            : cr.error;
            }
            jr.stats = std::move(cr.stats);
            jr.payload = std::move(cr.payload);
            jr.hostSeconds = secondsSince(t0);
            return jr;
        }
        std::unique_ptr<Workload> wl = pt.workload.make();
        if (!wl)
            throw std::runtime_error("workload factory returned null");
        SystemConfig cfg = pt.config;
        if (_opts.engine == EngineKind::Parallel) {
            cfg.engine = EngineKind::Parallel;
            cfg.shards = _opts.engineShards;
        }
        if (_opts.drainStop)
            cfg.drainStop = true;
        PiranhaSystem sys(cfg);
        // In a process-tier worker, a crash from here on dumps this
        // system's diagnostics into the PJX1 crash report.
        CrashDumpScope crash_scope(&sys);
        std::uint64_t per_cpu = std::max<std::uint64_t>(
            1, pt.workload.totalWork / sys.totalCpus());
        jr.run = sys.run(*wl, per_cpu, pt.maxTime, abort_check);
        if (jr.run.aborted && abort_check && abort_check()) {
            jr.status = JobStatus::TimedOut;
            jr.error = "host wall-clock timeout";
        } else {
            jr.stats = flattenRunResult(jr.run);
            // Snapshot while the system (which owns the counters) is
            // still alive.
            if (_opts.captureStatTree)
                jr.statTree = statGroupToJson(sys.stats());
        }
    } catch (const TransientError &e) {
        jr.status = JobStatus::Failed;
        jr.error = e.what();
        transient = true;
    } catch (const std::exception &e) {
        jr.status = JobStatus::Failed;
        jr.error = e.what();
    } catch (...) {
        jr.status = JobStatus::Failed;
        jr.error = "unknown exception";
    }

    jr.hostSeconds = secondsSince(t0);
    if (jr.status == JobStatus::Ok && jr.hostSeconds > 0)
        jr.eventsPerHostSec =
            static_cast<double>(jr.run.eventsExecuted) / jr.hostSeconds;
    return jr;
}

namespace {

/**
 * Shared state of one thread-tier pool run. Heap-allocated and owned
 * via shared_ptr by the orchestrator AND every worker thread, because
 * abandoned (leaked) workers can outlive the sweep: a leaked thread
 * must still be able to take the mutex, observe that its job slot was
 * closed, and discard its result — never touch freed sweep state.
 */
struct PoolCtx
{
    // Leaked threads read points[i] while the caller's vectors may be
    // long gone, so the pool owns copies.
    const SweepOptions opts;
    const std::vector<SweepPoint> points;
    const std::vector<std::size_t> todo;

    std::mutex mu;
    std::condition_variable cv; // signaled on any job-state change

    enum class JobPhase { Queued, Running, Done, Abandoned };
    struct JobState
    {
        JobPhase phase = JobPhase::Queued;
        HostClock::time_point startedAt;
        JobResult result; // valid when Done
    };
    std::deque<std::size_t> queue;     // indices not yet started
    std::vector<JobState> state;       // indexed like points
    std::size_t settled = 0;           // Done + Abandoned + Cancelled
    std::size_t progressDone = 0;      // includes resumed jobs
    std::size_t leaked = 0;
    bool sawCancel = false;

    // Only the orchestrator thread reads results/journal; cleared
    // before it returns so leaked threads cannot race the caller.
    JobJournal *journal = nullptr;
    std::ostream *progress = nullptr;
    std::size_t totalJobs = 0; // for "[k/n]" lines

    PoolCtx(const SweepOptions &o, const std::vector<SweepPoint> &pts,
            const std::vector<std::size_t> &td)
        : opts(o), points(pts), todo(td), state(pts.size())
    {}

    bool
    cancelled() const
    {
        return opts.cancel &&
               opts.cancel->load(std::memory_order_relaxed);
    }

    /** Progress line, caller holds mu. Matches the historic format. */
    void
    progressLine(const JobResult &jr)
    {
        ++progressDone;
        if (!progress)
            return;
        *progress << "[" << progressDone << "/" << totalJobs << "] "
                  << jr.label << ": " << jobStatusName(jr.status)
                  << " (" << TextTable::fmt(jr.hostSeconds, 2)
                  << "s host";
        if (jr.leakedWorker)
            *progress << ", worker leaked";
        *progress << ")";
        if (!jr.error.empty())
            *progress << " - " << jr.error;
        *progress << std::endl;
    }
};

/** Body of one (detached) thread-tier worker. */
void
threadWorker(std::shared_ptr<PoolCtx> ctx)
{
    SweepRunner runner(ctx->opts);
    for (;;) {
        std::size_t i;
        {
            std::lock_guard<std::mutex> lock(ctx->mu);
            if (ctx->queue.empty())
                return;
            i = ctx->queue.front();
            ctx->queue.pop_front();
            if (ctx->cancelled()) {
                // Graceful drain: jobs not yet started are skipped
                // (in-flight ones on other workers finish normally).
                ctx->sawCancel = true;
                JobResult jr;
                jr.label = ctx->points[i].label;
                jr.status = JobStatus::Cancelled;
                ctx->state[i].phase = PoolCtx::JobPhase::Done;
                ctx->state[i].result = std::move(jr);
                ++ctx->settled;
                ctx->progressLine(ctx->state[i].result);
                ctx->cv.notify_all();
                continue;
            }
            ctx->state[i].phase = PoolCtx::JobPhase::Running;
            ctx->state[i].startedAt = HostClock::now();
            if (ctx->journal)
                ctx->journal->recordStart(ctx->points[i].label);
        }

        JobResult jr = runner.runJob(ctx->points[i]);

        std::lock_guard<std::mutex> lock(ctx->mu);
        if (ctx->state[i].phase == PoolCtx::JobPhase::Abandoned) {
            // The monitor gave up on us: the job was already recorded
            // TimedOut/leaked_worker and this thread's slot is dead.
            // Drop the late result and exit rather than pull more
            // jobs — a thread that blew through one timeout is not
            // trusted with another job.
            return;
        }
        if (ctx->journal)
            ctx->journal->recordDone(jr, ctx->opts.captureStatTree);
        ctx->state[i].phase = PoolCtx::JobPhase::Done;
        ctx->state[i].result = std::move(jr);
        ++ctx->settled;
        ctx->progressLine(ctx->state[i].result);
        ctx->cv.notify_all();
    }
}

/**
 * Thread-tier pool with hard job reclamation: workers run detached,
 * and one that is still running killGraceSec past its cooperative
 * timeout is abandoned — its job is closed as TimedOut with
 * leaked_worker set, a replacement worker is spawned, and the leaked
 * thread can never publish into the sweep again. Returns saw-cancel.
 */
bool
runThreadPool(const SweepOptions &opts,
              const std::vector<SweepPoint> &points,
              const std::vector<std::size_t> &todo,
              JobJournal *journal, SweepReport &report,
              std::size_t progress_base, unsigned nthreads)
{
    auto ctx = std::make_shared<PoolCtx>(opts, points, todo);
    ctx->journal = journal;
    ctx->progress = opts.progress;
    ctx->totalJobs = report.jobs.size();
    ctx->progressDone = progress_base;
    for (std::size_t i : todo)
        ctx->queue.push_back(i);

    // Abandonment deadline of a running job; zero timeout = never.
    auto abandonAt = [&](HostClock::time_point started) {
        return started +
               std::chrono::duration_cast<HostClock::duration>(
                   std::chrono::duration<double>(
                       opts.jobTimeoutSec +
                       std::max(0.05, opts.killGraceSec)));
    };

    unsigned live = std::min<unsigned>(
        nthreads, static_cast<unsigned>(todo.size()));
    for (unsigned t = 0; t < live; ++t)
        std::thread(threadWorker, ctx).detach();

    std::unique_lock<std::mutex> lock(ctx->mu);
    while (ctx->settled < todo.size()) {
        if (opts.jobTimeoutSec > 0) {
            // Wake at the earliest possible abandonment.
            HostClock::time_point next =
                HostClock::now() + std::chrono::milliseconds(250);
            for (std::size_t i : todo) {
                const auto &st = ctx->state[i];
                if (st.phase == PoolCtx::JobPhase::Running)
                    next = std::min(next, abandonAt(st.startedAt));
            }
            ctx->cv.wait_until(lock, next);

            HostClock::time_point now = HostClock::now();
            for (std::size_t i : todo) {
                auto &st = ctx->state[i];
                if (st.phase != PoolCtx::JobPhase::Running ||
                    now < abandonAt(st.startedAt))
                    continue;
                // Hard abandonment: thread ignored the cooperative
                // abort hook through the entire grace window.
                st.phase = PoolCtx::JobPhase::Abandoned;
                JobResult jr;
                jr.label = points[i].label;
                jr.status = JobStatus::TimedOut;
                jr.error = strFormat(
                    "worker thread unresponsive %.1fs past the "
                    "%.1fs timeout; thread leaked",
                    opts.killGraceSec, opts.jobTimeoutSec);
                jr.leakedWorker = true;
                jr.attempts = 1;
                jr.hostSeconds = secondsSince(st.startedAt);
                if (journal)
                    journal->recordDone(jr, opts.captureStatTree);
                report.jobs[i] = jr;
                ++ctx->settled;
                ++ctx->leaked;
                ctx->progressLine(jr);
                // The leaked thread's slot is gone for good; keep the
                // pool at strength so the sweep still finishes.
                if (!ctx->queue.empty())
                    std::thread(threadWorker, ctx).detach();
            }
        } else {
            ctx->cv.wait(lock);
        }
    }

    // Copy results out and detach the journal/progress pointers so a
    // still-running leaked thread can never touch caller-owned state.
    for (std::size_t i : todo)
        if (ctx->state[i].phase == PoolCtx::JobPhase::Done)
            report.jobs[i] = std::move(ctx->state[i].result);
    bool saw_cancel = ctx->sawCancel;
    ctx->journal = nullptr;
    ctx->progress = nullptr;
    return saw_cancel;
}

} // namespace

SweepReport
SweepRunner::run(const std::string &name,
                 const std::vector<SweepPoint> &points) const
{
    SweepReport report;
    report.name = name;
    report.jobs.resize(points.size());
    report.exec =
        _opts.exec == ExecTier::Process ? "process" : "thread";
    unsigned nthreads = effectiveThreads(points.size());
    report.threads = nthreads;

    HostClock::time_point t0 = HostClock::now();

    // Resume: journal-recovered jobs re-enter the report through the
    // same deserializer the worker pipe uses, so a resumed aggregate
    // is bit-identical to an uninterrupted run.
    std::vector<std::size_t> todo;
    std::size_t resumed = 0;
    if (_opts.resume && !_opts.journalDir.empty() &&
        JobJournal::exists(_opts.journalDir)) {
        JobJournal::Recovery rec = JobJournal::load(_opts.journalDir);
        if (rec.version != 0 && rec.sweepName != name)
            throw std::runtime_error(strFormat(
                "journal %s was written by sweep '%s', not '%s' — "
                "refusing to resume across sweeps",
                JobJournal::filePath(_opts.journalDir).c_str(),
                rec.sweepName.c_str(), name.c_str()));
        for (std::size_t i = 0; i < points.size(); ++i) {
            auto it = rec.done.find(points[i].label);
            if (it != rec.done.end() &&
                it->second.status != JobStatus::Cancelled) {
                report.jobs[i] = it->second;
                report.jobs[i].fromJournal = true;
                ++resumed;
            } else {
                todo.push_back(i);
            }
        }
        if (_opts.progress) {
            *_opts.progress
                << "resume: " << resumed << "/" << points.size()
                << " jobs recovered from journal, " << todo.size()
                << " to run";
            if (rec.truncated)
                *_opts.progress
                    << " (journal tail damaged; affected jobs re-run)";
            *_opts.progress << std::endl;
        }
    } else {
        for (std::size_t i = 0; i < points.size(); ++i)
            todo.push_back(i);
    }

    std::unique_ptr<JobJournal> journal;
    if (!_opts.journalDir.empty())
        journal = std::make_unique<JobJournal>(
            _opts.journalDir, name, points.size(), _opts.resume);

    bool saw_cancel = false;
    if (todo.empty()) {
        // Everything recovered; nothing to execute.
    } else if (_opts.exec == ExecTier::Process) {
        saw_cancel = runProcessTier(_opts, points, todo,
                                    journal.get(), report, resumed);
    } else if (nthreads <= 1 && _opts.jobTimeoutSec <= 0) {
        // Serial inline path: no pool, no monitor, byte-identical to
        // the historic single-threaded behaviour.
        std::size_t done = resumed;
        for (std::size_t i : todo) {
            JobResult jr;
            if (_opts.cancel &&
                _opts.cancel->load(std::memory_order_relaxed)) {
                saw_cancel = true;
                jr.label = points[i].label;
                jr.status = JobStatus::Cancelled;
            } else {
                if (journal)
                    journal->recordStart(points[i].label);
                jr = runJob(points[i]);
                if (journal)
                    journal->recordDone(jr, _opts.captureStatTree);
            }
            ++done;
            if (_opts.progress) {
                *_opts.progress
                    << "[" << done << "/" << points.size() << "] "
                    << jr.label << ": " << jobStatusName(jr.status)
                    << " (" << TextTable::fmt(jr.hostSeconds, 2)
                    << "s host)";
                if (!jr.error.empty())
                    *_opts.progress << " - " << jr.error;
                *_opts.progress << std::endl;
            }
            report.jobs[i] = std::move(jr);
        }
    } else {
        saw_cancel = runThreadPool(_opts, points, todo, journal.get(),
                                   report, resumed, nthreads);
    }

    report.interrupted = saw_cancel;
    report.hostSeconds = secondsSince(t0);
    return report;
}

SweepReport
SweepRunner::run(const SweepSpec &spec) const
{
    return run(spec.name, spec.expand());
}

} // namespace piranha
