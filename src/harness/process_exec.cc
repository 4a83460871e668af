#include "harness/process_exec.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <ostream>
#include <thread>

#include <poll.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "harness/journal.h"
#include "sim/logging.h"
#include "system/sim_system.h"

namespace piranha {

const char *
exitClassName(ExitClass c)
{
    switch (c) {
      case ExitClass::Ok: return "ok";
      case ExitClass::Exit: return "exit";
      case ExitClass::Signal: return "signal";
      case ExitClass::Timeout: return "timeout";
      case ExitClass::Oom: return "oom";
      case ExitClass::Protocol: return "protocol";
    }
    return "?";
}

namespace {

using HostClock = std::chrono::steady_clock;

/** Backoff base between attempts of a job whose worker died. */
constexpr double kRetryBackoffSec = 0.1;

double
secondsSince(HostClock::time_point t0)
{
    return std::chrono::duration<double>(HostClock::now() - t0).count();
}

/** write() the whole buffer, riding out EINTR; best effort. */
bool
writeAll(int fd, const char *data, std::size_t len)
{
    std::size_t off = 0;
    while (off < len) {
        ssize_t n = ::write(fd, data + off, len - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeFrame(int fd, const char *magic, const std::string &payload)
{
    char head[48];
    int n = std::snprintf(head, sizeof(head), "%s %zu\n", magic,
                          payload.size());
    std::string frame;
    frame.reserve(static_cast<std::size_t>(n) + payload.size());
    frame.append(head, static_cast<std::size_t>(n));
    frame += payload;
    return writeAll(fd, frame.data(), frame.size());
}

// ---------------------------------------------------------------------
// Worker-side crash reporter. Best effort by design: the process is
// already dying, so the handler tries once to serialize a diagnostic
// dump (the PR 5 watchdog format) into a PJX1 frame, then re-raises
// with the default disposition so the supervisor's waitpid sees the
// real signal. A second fault inside the handler just re-raises.

std::atomic<PiranhaSystem *> g_crashSystem{nullptr};
std::atomic<int> g_crashFd{-1};
volatile std::sig_atomic_t g_inCrashHandler = 0;

void
crashHandler(int sig)
{
    if (g_inCrashHandler == 0) {
        g_inCrashHandler = 1;
        int fd = g_crashFd.load(std::memory_order_relaxed);
        if (fd >= 0) {
            // Not async-signal-safe (allocates), but the alternative
            // is losing the crash report of a process that is dead
            // either way; the reentry guard turns a second fault into
            // a plain signal death.
            std::string dump = strFormat(
                "worker crash: signal %d (%s)\n", sig,
                strsignal(sig));
            PiranhaSystem *sys =
                g_crashSystem.load(std::memory_order_relaxed);
            if (sys)
                dump += sys->diagnosticDump(
                    strFormat("worker crash: signal %d", sig));
            writeFrame(fd, "PJX1", dump);
        }
    }
    std::signal(sig, SIG_DFL);
    ::raise(sig);
}

const int kCrashSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};

} // namespace

CrashDumpScope::CrashDumpScope(PiranhaSystem *sys)
{
    if (g_crashFd.load(std::memory_order_relaxed) >= 0)
        g_crashSystem.store(sys, std::memory_order_relaxed);
}

CrashDumpScope::~CrashDumpScope()
{
    if (g_crashFd.load(std::memory_order_relaxed) >= 0)
        g_crashSystem.store(nullptr, std::memory_order_relaxed);
}

void
installWorkerCrashReporter(int fd)
{
    g_crashFd.store(fd, std::memory_order_relaxed);
    for (int sig : kCrashSignals)
        std::signal(sig, crashHandler);
}

namespace {

// ---------------------------------------------------------------------
// Worker (forked child) side.

[[noreturn]] void
applyChaos(WorkerFault f, int result_fd)
{
    switch (f) {
      case WorkerFault::Segv:
        // Through a real fault, not raise(): the crash reporter must
        // catch a genuine SIGSEGV delivery, emit its PJX1 frame, and
        // re-raise so the supervisor still sees a signal death. The
        // store hits a PROT_NONE page, not null: UBSan would stop a
        // null store as a runtime error before any signal arrived.
        {
            void *page = ::mmap(nullptr, 4096, PROT_NONE,
                                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (page != MAP_FAILED)
                *static_cast<volatile int *>(page) = 1;
        }
        ::_exit(99); // only if the mapping failed
      case WorkerFault::Kill:
        ::raise(SIGKILL);
        ::_exit(99);
      case WorkerFault::ExitNonZero:
        ::_exit(17);
      case WorkerFault::Hang:
        // A worker wedged hard enough to ignore polite signals: only
        // the supervisor's SIGKILL escalation can reclaim it.
        std::signal(SIGTERM, SIG_IGN);
        std::signal(SIGINT, SIG_IGN);
        for (;;)
            ::pause();
      case WorkerFault::Garbage:
        writeAll(result_fd, "XYZZY this is not a result frame {{{\n",
                 37);
        ::_exit(0);
      case WorkerFault::None:
        break;
    }
    ::_exit(98);
}

[[noreturn]] void
workerMain(const SweepOptions &opts, const SweepPoint &pt,
           std::size_t index, unsigned attempt, int result_fd)
{
    // The supervisor owns SIGINT drain; a terminal Ctrl-C must not
    // kill in-flight workers out from under it.
    std::signal(SIGINT, SIG_IGN);
#ifdef __linux__
    // Hard reclamation the other way round: if the supervisor dies,
    // the kernel reaps us — no orphan workers accumulating after a
    // kill -9 on the sweep.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() == 1)
        ::_exit(3); // supervisor died in the fork window
#endif
    installWorkerCrashReporter(result_fd);

    auto it = opts.chaos.byIndex.find(index);
    if (it != opts.chaos.byIndex.end() && attempt == 1 &&
        it->second != WorkerFault::None)
        applyChaos(it->second, result_fd);

    // One attempt per process (runJob runs the point once, in this
    // thread): retrying a dead worker is the supervisor's job.
    JobResult jr = SweepRunner(opts).runJob(pt);

    std::string payload =
        jobResultToJson(jr, opts.captureStatTree).dump(0);
    writeFrame(result_fd, "PJR1", payload);
    ::_exit(0);
}

// ---------------------------------------------------------------------
// Supervisor side.

/** Frames recovered from one worker's output stream. */
struct WorkerOutput
{
    bool haveResult = false;
    std::string resultJson;
    std::string crashReport;
    bool garbage = false; //!< unframed bytes (or a cut frame) present
};

WorkerOutput
parseWorkerOutput(const std::string &buf)
{
    WorkerOutput out;
    std::size_t pos = 0;
    while (pos < buf.size()) {
        bool is_result = buf.compare(pos, 5, "PJR1 ") == 0;
        bool is_crash = buf.compare(pos, 5, "PJX1 ") == 0;
        if (!is_result && !is_crash) {
            out.garbage = true;
            return out;
        }
        std::size_t p = pos + 5;
        std::size_t len = 0;
        bool any = false;
        while (p < buf.size() &&
               std::isdigit(static_cast<unsigned char>(buf[p]))) {
            len = len * 10 + static_cast<std::size_t>(buf[p] - '0');
            ++p;
            any = true;
            if (len > buf.size()) {
                out.garbage = true;
                return out;
            }
        }
        if (!any || p >= buf.size() || buf[p] != '\n' ||
            p + 1 + len > buf.size()) {
            out.garbage = true; // header or payload cut off
            return out;
        }
        ++p;
        if (is_result) {
            out.haveResult = true;
            out.resultJson.assign(buf, p, len);
        } else {
            out.crashReport.append(buf, p, len);
        }
        pos = p + len;
    }
    return out;
}

struct Child
{
    pid_t pid = -1;
    int fd = -1; //!< result-pipe read end
    std::size_t idx = 0;
    unsigned attempt = 1;
    HostClock::time_point spawnedAt;
    HostClock::time_point termAt, killAt; //!< valid when timed
    bool timed = false;
    int killSent = 0; //!< 0, SIGTERM or SIGKILL
    std::string buf;
};

struct Retry
{
    std::size_t idx = 0;
    unsigned attempt = 1;
    HostClock::time_point notBefore;
};

struct Supervisor
{
    const SweepOptions &opts;
    const std::vector<SweepPoint> &points;
    JobJournal *journal;
    SweepReport &report;

    std::deque<std::size_t> queue;
    std::vector<Retry> retries;
    std::vector<Child> kids;
    std::vector<HostClock::time_point> firstStart;
    std::vector<std::string> lastCrash;

    std::size_t progressDone;
    unsigned maxAttempts;
    unsigned recorded = 0; //!< finalized results (chaos exit counter)
    bool sawCancel = false;

    Supervisor(const SweepOptions &o,
               const std::vector<SweepPoint> &pts, JobJournal *j,
               SweepReport &rep, std::size_t progress_base)
        : opts(o), points(pts), journal(j), report(rep),
          firstStart(pts.size()), lastCrash(pts.size()),
          progressDone(progress_base),
          maxAttempts(std::max(1u, o.maxAttempts))
    {}

    void
    printProgress(const JobResult &jr)
    {
        ++progressDone;
        if (opts.progress)
            *opts.progress
                << progressLine(progressDone, report.jobs.size(), jr)
                << std::endl;
    }

    void
    finalize(std::size_t idx, JobResult jr)
    {
        if (journal)
            journal->recordDone(jr, opts.captureStatTree);
        printProgress(jr);
        report.jobs[idx] = std::move(jr);
        ++recorded;
        if (opts.chaos.supervisorExitAfter &&
            recorded >= opts.chaos.supervisorExitAfter) {
            // Deterministic supervisor "crash" for resume tests: the
            // journal is synced, the report is not written, children
            // die via PDEATHSIG.
            ::_exit(42);
        }
    }

    void
    spawn(std::size_t idx, unsigned attempt)
    {
        if (attempt == 1)
            firstStart[idx] = HostClock::now();
        int res[2];
        if (::pipe(res) != 0)
            fatal("pipe() failed: %s", std::strerror(errno));
        std::fflush(stdout);
        std::fflush(stderr);
        pid_t pid = ::fork();
        if (pid < 0) {
            // Treat like a crash-class failure of this attempt.
            std::string why =
                strFormat("fork failed: %s", std::strerror(errno));
            ::close(res[0]);
            ::close(res[1]);
            crashOutcome(idx, attempt, ExitClass::Exit, why, "");
            return;
        }
        if (pid == 0) {
            ::close(res[0]);
            // The forked worker already holds the point vector: its
            // index is the whole job spec.
            workerMain(opts, points[idx], idx, attempt, res[1]);
        }
        ::close(res[1]);

        Child c;
        c.pid = pid;
        c.fd = res[0];
        c.idx = idx;
        c.attempt = attempt;
        c.spawnedAt = HostClock::now();
        if (opts.jobTimeoutSec > 0) {
            auto grace = std::chrono::duration_cast<
                HostClock::duration>(std::chrono::duration<double>(
                std::max(0.05, opts.killGraceSec)));
            c.timed = true;
            // The worker runs the same cooperative timeout and will
            // normally report TimedOut itself; the supervisor's kill
            // escalation is for workers too wedged to do even that.
            c.termAt = c.spawnedAt +
                       std::chrono::duration_cast<HostClock::duration>(
                           std::chrono::duration<double>(
                               opts.jobTimeoutSec)) +
                       grace;
            c.killAt = c.termAt + grace;
        }
        kids.push_back(std::move(c));
    }

    /** Handle an abnormal attempt outcome: retry or finalize. */
    void
    crashOutcome(std::size_t idx, unsigned attempt, ExitClass cls,
                 const std::string &error, const std::string &crash)
    {
        if (!crash.empty())
            lastCrash[idx] = crash;
        if (attempt < maxAttempts) {
            if (opts.progress)
                *opts.progress
                    << "    " << points[idx].label << ": "
                    << exitClassName(cls) << " (" << error
                    << "), retrying [attempt " << attempt + 1 << "/"
                    << maxAttempts << "]" << std::endl;
            Retry r;
            r.idx = idx;
            r.attempt = attempt + 1;
            r.notBefore =
                HostClock::now() +
                std::chrono::duration_cast<HostClock::duration>(
                    std::chrono::duration<double>(
                        retryBackoff(kRetryBackoffSec, attempt)));
            retries.push_back(r);
            return;
        }
        JobResult jr;
        jr.label = points[idx].label;
        jr.status = cls == ExitClass::Timeout ? JobStatus::TimedOut
                                              : JobStatus::Failed;
        jr.error = error;
        jr.exitClass = exitClassName(cls);
        jr.attempts = attempt;
        jr.crashReport = lastCrash[idx];
        jr.hostSeconds = secondsSince(firstStart[idx]);
        finalize(idx, std::move(jr));
    }

    /** A child's pipe hit EOF: reap, classify, dispatch. */
    void
    reap(Child &&c)
    {
        int status = 0;
        while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
        }
        ::close(c.fd);
        WorkerOutput out = parseWorkerOutput(c.buf);

        if (WIFEXITED(status)) {
            int code = WEXITSTATUS(status);
            if (code != 0) {
                crashOutcome(c.idx, c.attempt, ExitClass::Exit,
                             strFormat("worker exited with code %d",
                                       code),
                             out.crashReport);
                return;
            }
            if (!out.haveResult) {
                crashOutcome(
                    c.idx, c.attempt, ExitClass::Protocol,
                    strFormat("malformed worker output (%zu bytes, "
                              "no result frame)",
                              c.buf.size()),
                    out.crashReport);
                return;
            }
            JobResult jr;
            try {
                jr = jobResultFromJson(parseJson(out.resultJson));
            } catch (const std::exception &e) {
                crashOutcome(c.idx, c.attempt, ExitClass::Protocol,
                             strFormat("unparseable worker result: %s",
                                       e.what()),
                             out.crashReport);
                return;
            }
            // A valid frame is authoritative, whatever its status: a
            // deterministic universe fails the same way every time.
            jr.attempts = c.attempt;
            jr.exitClass = exitClassName(ExitClass::Ok);
            jr.hostSeconds = secondsSince(firstStart[c.idx]);
            finalize(c.idx, std::move(jr));
            return;
        }

        int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
        if (c.killSent) {
            crashOutcome(
                c.idx, c.attempt, ExitClass::Timeout,
                strFormat("worker killed after %.1fs wall-clock "
                          "timeout (%s)",
                          opts.jobTimeoutSec,
                          c.killSent == SIGKILL ? "SIGKILL"
                                                : "SIGTERM"),
                out.crashReport);
        } else if (sig == SIGKILL) {
            crashOutcome(c.idx, c.attempt, ExitClass::Oom,
                         "worker killed by SIGKILL outside the "
                         "harness (host OOM killer?)",
                         out.crashReport);
        } else {
            crashOutcome(c.idx, c.attempt, ExitClass::Signal,
                         strFormat("worker killed by signal %d (%s)",
                                   sig, strsignal(sig)),
                         out.crashReport);
        }
    }

    bool
    cancelled() const
    {
        return opts.cancel &&
               opts.cancel->load(std::memory_order_relaxed);
    }

    void
    run(const std::vector<std::size_t> &todo, unsigned nslots)
    {
        for (std::size_t i : todo)
            queue.push_back(i);

        while (!queue.empty() || !retries.empty() || !kids.empty()) {
            HostClock::time_point now = HostClock::now();

            if (cancelled() && (!queue.empty() || !retries.empty())) {
                // Graceful drain, same semantics as the thread tier:
                // in-flight workers finish, queued jobs are skipped.
                sawCancel = true;
                for (std::size_t i : queue)
                    cancelJob(i);
                queue.clear();
                for (const Retry &r : retries)
                    cancelJob(r.idx);
                retries.clear();
            }

            // Launch into free slots: fresh jobs first, then due
            // retries (their backoff must elapse first).
            while (kids.size() < nslots) {
                if (!queue.empty()) {
                    std::size_t idx = queue.front();
                    queue.pop_front();
                    spawn(idx, 1);
                    continue;
                }
                auto due = std::find_if(
                    retries.begin(), retries.end(),
                    [&](const Retry &r) { return r.notBefore <= now; });
                if (due == retries.end())
                    break;
                Retry r = *due;
                retries.erase(due);
                spawn(r.idx, r.attempt);
            }

            if (kids.empty()) {
                if (!retries.empty())
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                continue;
            }

            std::vector<pollfd> pfds(kids.size());
            for (std::size_t i = 0; i < kids.size(); ++i)
                pfds[i] = pollfd{kids[i].fd, POLLIN, 0};
            ::poll(pfds.data(), pfds.size(), 100);

            // Drain readable pipes; EOF finalizes the child.
            for (std::size_t i = 0; i < kids.size();) {
                bool eof = false;
                if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
                    char chunk[65536];
                    ssize_t n = ::read(kids[i].fd, chunk,
                                       sizeof(chunk));
                    if (n > 0)
                        kids[i].buf.append(
                            chunk, static_cast<std::size_t>(n));
                    else if (n == 0 ||
                             (n < 0 && errno != EINTR &&
                              errno != EAGAIN))
                        eof = true;
                }
                if (eof) {
                    Child c = std::move(kids[i]);
                    pfds.erase(pfds.begin() +
                               static_cast<long>(i));
                    kids.erase(kids.begin() + static_cast<long>(i));
                    reap(std::move(c));
                } else {
                    ++i;
                }
            }

            // Timeout escalation: SIGTERM at the deadline, SIGKILL a
            // grace period later. This is the hard reclamation the
            // thread tier cannot do.
            now = HostClock::now();
            for (Child &c : kids) {
                if (!c.timed)
                    continue;
                if (c.killSent == 0 && now >= c.termAt) {
                    ::kill(c.pid, SIGTERM);
                    c.killSent = SIGTERM;
                } else if (c.killSent == SIGTERM && now >= c.killAt) {
                    ::kill(c.pid, SIGKILL);
                    c.killSent = SIGKILL;
                }
            }
        }
    }

    void
    cancelJob(std::size_t idx)
    {
        JobResult jr;
        jr.label = points[idx].label;
        jr.status = JobStatus::Cancelled;
        // No journal record: a cancelled job never ran, so --resume
        // re-runs it — that is what finishes an interrupted sweep.
        printProgress(jr);
        report.jobs[idx] = std::move(jr);
    }
};

} // namespace

bool
runProcessTier(const SweepOptions &opts,
               const std::vector<SweepPoint> &points,
               const std::vector<std::size_t> &todo,
               JobJournal *journal, SweepReport &report,
               std::size_t progress_base)
{
    Supervisor sup(opts, points, journal, report, progress_base);
    unsigned nslots =
        SweepRunner(opts).effectiveThreads(todo.size());
    sup.run(todo, nslots);
    return sup.sawCancel;
}

} // namespace piranha
