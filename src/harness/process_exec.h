/**
 * @file
 * Process-isolated sweep execution tier (DESIGN.md §14).
 *
 * The supervisor forks one worker process per job. The worker's
 * forked copy of the point vector and its index are the whole job
 * spec; the result comes back over a result pipe as the job's report
 * JSON fragment — the same schema the thread tier and the journal
 * use, so a result is bit-identical no matter which tier produced it.
 *
 * Wire frames (worker -> supervisor):
 *
 *   PJR1 <len>\n<json>    worker -> supervisor: jobResultToJson(...)
 *   PJX1 <len>\n<text>    worker -> supervisor: best-effort crash
 *                         report from a dying worker's signal handler
 *                         (the PR 5 watchdog diagnostic-dump format)
 *
 * A worker that completes — even with a Failed job — writes a PJR1
 * frame and _exit(0)s. Every other way out is abnormal and gets
 * classified from the wait status: nonzero exit ("exit"), death by
 * signal ("signal"), killed by the supervisor's timeout escalation
 * SIGTERM -> SIGKILL ("timeout"), SIGKILL from outside the harness
 * ("oom" — the host OOM killer is the usual sender), or exit 0 with a
 * missing/malformed result frame ("protocol"). Abnormal exits are
 * retried with bounded exponential backoff; a valid frame is
 * authoritative and never retried.
 */

#ifndef PIRANHA_HARNESS_PROCESS_EXEC_H
#define PIRANHA_HARNESS_PROCESS_EXEC_H

#include <cstddef>
#include <string>
#include <vector>

#include "harness/sweep_runner.h"

namespace piranha {

class JobJournal;
class PiranhaSystem;

/** Classification of one worker exit (DESIGN.md §14). */
enum class ExitClass { Ok, Exit, Signal, Timeout, Oom, Protocol };

const char *exitClassName(ExitClass c);

/**
 * While in scope, registers @p sys as the system a crashing worker's
 * signal handler should dump (PiranhaSystem::diagnosticDump). A no-op
 * unless installWorkerCrashReporter was called in this process.
 */
class CrashDumpScope
{
  public:
    explicit CrashDumpScope(PiranhaSystem *sys);
    ~CrashDumpScope();
    CrashDumpScope(const CrashDumpScope &) = delete;
    CrashDumpScope &operator=(const CrashDumpScope &) = delete;
};

/**
 * Install best-effort fatal-signal handlers (SIGSEGV, SIGBUS, SIGFPE,
 * SIGILL, SIGABRT) that write a PJX1 crash-report frame to @p fd and
 * re-raise, so the supervisor still sees the true signal exit. Called
 * by the forked worker; never call it in the supervisor.
 */
void installWorkerCrashReporter(int fd);

/**
 * Run @p todo (indices into @p points) on forked worker processes and
 * fill the corresponding report slots. Each final result is fsynced
 * to @p journal when it is non-null. Honors opts.cancel with the same
 * drain semantics as the thread tier. Returns true when the sweep saw
 * a cancellation.
 *
 * The caller must be effectively single-threaded: the supervisor
 * forks, and a fork in a multithreaded process can inherit held
 * locks. SweepRunner guarantees this by never mixing tiers in a run.
 */
bool runProcessTier(const SweepOptions &opts,
                    const std::vector<SweepPoint> &points,
                    const std::vector<std::size_t> &todo,
                    JobJournal *journal, SweepReport &report,
                    std::size_t progress_base);

} // namespace piranha

#endif // PIRANHA_HARNESS_PROCESS_EXEC_H
