/**
 * @file
 * Parallel sweep execution.
 *
 * SweepRunner executes the jobs of a SweepSpec on a pool of host
 * threads. Each job builds its own PiranhaSystem (own EventQueue, own
 * workload instance from the point's factory) inside the worker
 * thread, so simulated behaviour is bit-identical whether the sweep
 * runs on one thread or sixteen — parallelism only reorders which
 * host thread computes which universe, never the events inside one.
 *
 * Every simulation job runs through one job body (runSimulation),
 * which records how the run ended: only a run that finished its work
 * is Ok. One that throws, panics, trips the watchdog, raises a machine
 * check or runs out of simulated time is Failed, with the reason, and
 * neither the process nor the other jobs notice (except a panic on a
 * parallel-engine shard thread, which still aborts the process). A job exceeding the host wall-clock timeout is stopped
 * cooperatively (via the PiranhaSystem::run abort hook) and recorded
 * as TimedOut. A job that must be killed from outside runs on the
 * process tier.
 */

#ifndef PIRANHA_HARNESS_SWEEP_RUNNER_H
#define PIRANHA_HARNESS_SWEEP_RUNNER_H

#include <atomic>
#include <iosfwd>
#include <map>

#include "harness/sweep.h"

namespace piranha {

/**
 * Which tier executes the jobs.
 *
 * Thread: a joinable pool of host threads in this process. Cheap, but
 * isolation is cooperative — a job that segfaults takes the sweep
 * down, and a timeout stops a job only at the PiranhaSystem::run
 * abort hook, so a job that never reaches it keeps its thread.
 *
 * Process: one forked worker process per job (DESIGN.md §14). A
 * crashing/hanging/OOM-killed worker costs exactly its own job: the
 * supervisor classifies the exit, SIGKILLs hung workers after a
 * grace period, and retries crash-class exits with bounded
 * exponential backoff. Those retries are the harness's only ones.
 */
enum class ExecTier { Thread, Process };

/**
 * Seeded worker misbehaviour for supervisor fault-injection tests
 * (process tier only). This is the same philosophy as the PR 5 fault
 * campaigns, one level up: prove the supervisor survives and
 * classifies every way a worker can die.
 */
enum class WorkerFault
{
    None,
    Segv,        //!< raise SIGSEGV before running the job
    Kill,        //!< raise SIGKILL (mimics the host OOM killer)
    ExitNonZero, //!< _exit(17) without writing a result frame
    Hang,        //!< ignore SIGTERM and pause() forever
    Garbage,     //!< write malformed bytes instead of a result frame
};

/** Fault plan for the process tier itself (tests / ci.sh crashsafe). */
struct ProcessChaos
{
    /** Job index (in the expanded point vector) -> injected fault.
     *  The fault fires on the job's first attempt only, so a retried
     *  job runs clean and a chaos run's final report is identical to
     *  a clean run modulo attempt metadata. */
    std::map<std::size_t, WorkerFault> byIndex;

    /** When > 0, the supervisor _exit(42)s right after recording its
     *  N-th job result — a deterministic stand-in for kill -9 on the
     *  supervisor, used to test --resume. */
    unsigned supervisorExitAfter = 0;
};

/** Execution options for a sweep. */
struct SweepOptions
{
    /** Worker threads; 0 = one per hardware thread, 1 = serial. */
    unsigned threads = 0;

    /** Per-job host wall-clock timeout in seconds; 0 disables. */
    double jobTimeoutSec = 0;

    /** Stream for live "[k/n] label: status" lines; null = silent. */
    std::ostream *progress = nullptr;

    /** Embed each job's full StatGroup snapshot in the results. */
    bool captureStatTree = true;

    /**
     * Process tier only: executions allowed per job when its worker
     * dies without a result (a crash-class exit); 1 = no retry. After
     * failed attempt k the supervisor waits retryBackoff(0.1, k). A
     * job that reports any result, a failed one included, is never
     * retried: a deterministic universe fails identically every time.
     */
    unsigned maxAttempts = 1;

    /**
     * Cooperative cancellation (SIGINT drain): when the pointee
     * becomes true, in-flight jobs finish normally but queued jobs
     * are recorded as Cancelled, and the report is marked
     * interrupted. The flag is only read — safe to set from a signal
     * handler through a std::atomic<bool>.
     */
    const std::atomic<bool> *cancel = nullptr;

    /**
     * Intra-run engine applied to every simulation point (orthogonal
     * to the sweep's own host-thread pool): Parallel gives each job
     * per-chip event queues driven by worker threads (DESIGN.md §13).
     * Custom points (litmus) are unaffected.
     */
    EngineKind engine = EngineKind::Serial;
    unsigned engineShards = 0; //!< parallel workers; 0 = one per chip

    /**
     * Force SystemConfig::drainStop on every simulation point. The
     * parallel engine always runs to quiescence, so a serial pass
     * meant to be compared against a parallel one (sweep --verify
     * --engine parallel) must drain too.
     */
    bool drainStop = false;

    /** Execution tier (see ExecTier). Thread stays the default so
     *  existing tests and callers are byte-for-byte unaffected. */
    ExecTier exec = ExecTier::Thread;

    /**
     * Job journal directory (empty = journaling off). Each job's full
     * result is fsynced when it finishes, so a killed sweep can be
     * resumed (DESIGN.md §14).
     */
    std::string journalDir{};

    /**
     * Resume from journalDir: jobs with a valid completion record are
     * loaded into the report (flagged fromJournal) instead of re-run;
     * every other job (in flight, cancelled, damaged record) re-runs.
     * The resumed aggregate report is bit-identical (modulo attempt /
     * exit-class / resumed metadata) to an uninterrupted run.
     */
    bool resume = false;

    /**
     * Process tier only: a worker still alive killGraceSec after its
     * cooperative timeout gets SIGTERM, and SIGKILL killGraceSec
     * later.
     */
    double killGraceSec = 1.0;

    /** Supervisor fault injection (tests / CI crashsafe stage). */
    ProcessChaos chaos{};
};

/**
 * Seconds to wait after failed attempt @p attempt (1-based) before the
 * next one: @p base_sec * 2^(attempt-1), capped at 10 s. The exponent
 * is capped before the shift, so every attempt count is defined.
 */
double retryBackoff(double base_sec, unsigned attempt);

/**
 * The one job body: build @p pt's system, run its workload under
 * @p abort_check and record how the run ended. The sweep runner and
 * the fault campaign both run simulations through it, under the
 * PanicThrowsGuard that SweepRunner::runJob holds. So a panic raised
 * on the calling thread comes back as a Failed result (the system
 * outlives it, so its diagnostic dump and fault records survive),
 * never as a process abort; one raised on a parallel-engine shard
 * thread still aborts. Status and error name the end:
 *
 *   ok         the run completed its work
 *   timed_out  the host stopped it ("host wall-clock timeout")
 *   failed     "watchdog tripped: <reason>", "machine check:
 *              <reason>", "max_time exhausted" or the "panic: ..."
 *              text
 *
 * A watchdog trip, max_time and a panic leave a diagnostic dump in
 * crashReport; a machine check leaves none (its reason names the
 * site). Only an ok job carries stats, and its stat tree when
 * @p capture_stat_tree is set. Any other exception (a host-side
 * error) propagates to the caller.
 */
JobResult runSimulation(const SweepPoint &pt,
                        const AbortCheck &abort_check,
                        bool capture_stat_tree);

/** Whether @p jr, a runSimulation result, ended in a panic: the one
 *  end whose run did not come back. Every other Failed or TimedOut
 *  end sets RunResult::aborted or machineCheck, and jr.run is the
 *  run's result; after a panic it holds only the fault counters and
 *  fired faults. */
bool endedInPanic(const JobResult &jr);

/**
 * The live "[k/n] label: status (…)" line for a finished job, without
 * the newline; both tiers print it. The exit class is shown when it is
 * not "ok", the attempt count when it is above one.
 */
std::string progressLine(std::size_t done, std::size_t total,
                         const JobResult &jr);

/** Executes sweep jobs on host threads or forked worker processes. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {}) : _opts(opts) {}

    /** Run all points of @p spec; results come back in spec order. */
    SweepReport run(const SweepSpec &spec) const;

    /** Run an explicit job vector (label order preserved). */
    SweepReport run(const std::string &name,
                    const std::vector<SweepPoint> &points) const;

    /** Execute one point in the calling thread (no pool, no timeout
     *  unless opts.jobTimeoutSec is set), once: a simulation point
     *  through runSimulation, a custom point through its body. An
     *  exception or a panic out of either is captured as a Failed
     *  result. */
    JobResult runJob(const SweepPoint &pt) const;

    /** Threads run() will actually use for @p njobs jobs. */
    unsigned effectiveThreads(size_t njobs) const;

  private:
    SweepOptions _opts;
};

} // namespace piranha

#endif // PIRANHA_HARNESS_SWEEP_RUNNER_H
