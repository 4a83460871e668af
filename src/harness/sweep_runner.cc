#include "harness/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "fault/injector.h"
#include "harness/journal.h"
#include "harness/process_exec.h"
#include "sim/logging.h"
#include "stats/json_writer.h"
#include "stats/stats.h"

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
runSimulation(const SweepPoint &pt, const AbortCheck &abort_check,
              bool capture_stat_tree)
{
    JobResult jr;
    // The system outlives the try, so the result still shows the
    // state a panic left.
    std::unique_ptr<PiranhaSystem> sys;
    try {
        std::unique_ptr<Workload> wl = pt.workload.make();
        if (!wl)
            throw std::runtime_error("workload factory returned null");
        sys = std::make_unique<PiranhaSystem>(pt.config);
        // In a process-tier worker, a crash from here on dumps this
        // system's diagnostics into the PJX1 crash report.
        CrashDumpScope crash_scope(sys.get());
        std::uint64_t per_cpu = std::max<std::uint64_t>(
            1, pt.workload.totalWork / sys->totalCpus());
        jr.run = sys->run(*wl, per_cpu, pt.maxTime, abort_check);

        const RunResult &r = jr.run;
        if (r.aborted && abort_check && abort_check()) {
            jr.status = JobStatus::TimedOut;
            jr.error = "host wall-clock timeout";
        } else if (r.machineCheck) {
            jr.status = JobStatus::Failed;
            jr.error = "machine check: " + r.machineCheckReason;
        } else if (r.watchdogTripped) {
            jr.status = JobStatus::Failed;
            jr.error = "watchdog tripped: " + r.watchdogReason;
        } else if (r.aborted) {
            jr.status = JobStatus::Failed;
            jr.error = "max_time exhausted";
        }
        jr.crashReport = r.watchdogDump;
        if (jr.status == JobStatus::Ok) {
            jr.stats = flattenRunResult(r);
            if (capture_stat_tree)
                jr.statTree = statGroupToJson(sys->stats());
        }
    } catch (const SimError &e) {
        jr.status = JobStatus::Failed;
        jr.error = e.what();
        if (sys) {
            jr.crashReport = sys->diagnosticDump(jr.error);
            if (const FaultInjector *inj = sys->injector()) {
                jr.run.faults = inj->counters;
                jr.run.firedFaults = inj->fired();
            }
        }
    }
    return jr;
}

bool
endedInPanic(const JobResult &jr)
{
    return jr.status == JobStatus::Failed && !jr.run.aborted &&
           !jr.run.machineCheck;
}

JobResult
SweepRunner::runJob(const SweepPoint &pt) const
{
    HostClock::time_point t0 = HostClock::now();
    AbortCheck abort_check;
    if (_opts.jobTimeoutSec > 0) {
        HostClock::time_point deadline =
            t0 + std::chrono::duration_cast<HostClock::duration>(
                     std::chrono::duration<double>(_opts.jobTimeoutSec));
        abort_check = [deadline] { return HostClock::now() >= deadline; };
    }

    JobResult jr;
    // A panic is an inconsistency the model caught: it ends this job,
    // not the process, in a custom body as in a simulation.
    PanicThrowsGuard panic_guard;
    try {
        if (pt.custom) {
            jr = pt.custom(abort_check);
        } else {
            SweepPoint sim = pt;
            if (_opts.engine == EngineKind::Parallel) {
                sim.config.engine = EngineKind::Parallel;
                sim.config.shards = _opts.engineShards;
            }
            if (_opts.drainStop)
                sim.config.drainStop = true;
            jr = runSimulation(sim, abort_check, _opts.captureStatTree);
        }
    } catch (const std::exception &e) {
        jr.status = JobStatus::Failed;
        jr.error = e.what();
    } catch (...) {
        jr.status = JobStatus::Failed;
        jr.error = "unknown exception";
    }
    jr.label = pt.label;

    jr.hostSeconds = secondsSince(t0);
    if (jr.status == JobStatus::Ok && jr.hostSeconds > 0)
        jr.eventsPerHostSec =
            static_cast<double>(jr.run.eventsExecuted) / jr.hostSeconds;
    return jr;
}

std::string
progressLine(std::size_t done, std::size_t total, const JobResult &jr)
{
    std::ostringstream os;
    os << "[" << done << "/" << total << "] " << jr.label << ": "
       << jobStatusName(jr.status) << " ("
       << TextTable::fmt(jr.hostSeconds, 2) << "s host";
    if (!jr.exitClass.empty() && jr.exitClass != "ok")
        os << ", " << jr.exitClass;
    if (jr.attempts > 1)
        os << ", attempt " << jr.attempts;
    os << ")";
    if (!jr.error.empty())
        os << " - " << jr.error;
    return os.str();
}

namespace {

/**
 * Thread tier: the calling thread plus @p nthreads - 1 helpers take
 * the indices of @p todo in order, each running its job to the end
 * (a timeout stops a job only through the cooperative abort hook).
 * Journal and progress writes share one mutex. Returns saw-cancel.
 */
bool
runThreadPool(const SweepRunner &runner, const SweepOptions &opts,
              const std::vector<SweepPoint> &points,
              const std::vector<std::size_t> &todo, JobJournal *journal,
              SweepReport &report, std::size_t progress_base,
              unsigned nthreads)
{
    std::atomic<std::size_t> next{0};
    std::mutex mu; // guards journal, progress and the three below
    std::size_t done = progress_base;
    bool saw_cancel = false;
    std::exception_ptr helper_error; // first exception out of a helper

    auto worker = [&] {
        for (;;) {
            std::size_t k = next.fetch_add(1);
            if (k >= todo.size())
                return;
            std::size_t i = todo[k];
            JobResult jr;
            // Graceful drain: jobs not yet started are skipped, the
            // ones in flight on other threads finish normally.
            bool cancelled =
                opts.cancel &&
                opts.cancel->load(std::memory_order_relaxed);
            if (cancelled) {
                jr.label = points[i].label;
                jr.status = JobStatus::Cancelled;
            } else {
                jr = runner.runJob(points[i]);
            }
            std::lock_guard<std::mutex> lock(mu);
            if (cancelled)
                saw_cancel = true;
            else if (journal)
                journal->recordDone(jr, opts.captureStatTree);
            if (opts.progress)
                *opts.progress
                    << progressLine(++done, report.jobs.size(), jr)
                    << std::endl;
            report.jobs[i] = std::move(jr);
        }
    };

    // A helper's exception is rethrown here once every thread has
    // joined, as the calling thread's own would be.
    auto helper = [&] {
        try {
            worker();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu);
            if (!helper_error)
                helper_error = std::current_exception();
        }
    };
    {
        std::size_t nworkers =
            std::min<std::size_t>(nthreads, todo.size());
        std::vector<std::jthread> helpers; // joined on every exit path
        for (std::size_t t = 1; t < nworkers; ++t)
            helpers.emplace_back(helper);
        worker();
    }
    if (helper_error)
        std::rethrow_exception(helper_error);
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
        journal = std::make_unique<JobJournal>(_opts.journalDir, name,
                                               _opts.resume);

    bool saw_cancel = false;
    if (todo.empty()) {
        // Everything recovered; nothing to execute.
    } else if (_opts.exec == ExecTier::Process) {
        saw_cancel = runProcessTier(_opts, points, todo,
                                    journal.get(), report, resumed);
    } else {
        saw_cancel = runThreadPool(*this, _opts, points, todo,
                                   journal.get(), report, resumed,
                                   nthreads);
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
