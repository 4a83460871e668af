/**
 * @file
 * Experiment-sweep declarations.
 *
 * Every figure in the paper is a sweep over configurations (core
 * counts, cache parameters, chip counts) crossed with workloads. A
 * SweepSpec declares that grid once; expand() turns it into a flat
 * vector of SweepPoints, each of which is a fully self-contained job:
 * its own SystemConfig plus a factory that builds a fresh Workload.
 * Because a job constructs its own PiranhaSystem and EventQueue when
 * it runs, points are independent deterministic universes — the
 * runner (sweep_runner.h) can execute them on any number of host
 * threads without perturbing per-run results.
 */

#ifndef PIRANHA_HARNESS_SWEEP_H
#define PIRANHA_HARNESS_SWEEP_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stats/json.h"
#include "system/config.h"
#include "system/sim_system.h"
#include "workload/workload.h"

namespace piranha {

/** Builds a fresh workload instance (fresh shared state) per run. */
using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

/** A workload axis entry: name + factory + total work per run. */
struct WorkloadDecl
{
    std::string name;
    WorkloadFactory make;
    std::uint64_t totalWork = 0; //!< split across the system's CPUs
};

/** The runner's host-timeout check, polled by a job while it runs;
 *  empty when the sweep sets no timeout. */
using AbortCheck = std::function<bool()>;

/** Outcome of one executed job. */
enum class JobStatus { Ok, Failed, TimedOut, Cancelled };

const char *jobStatusName(JobStatus s);

/** Parse jobStatusName output; throws std::runtime_error on unknown
 *  names (journal / worker-pipe deserialization). */
JobStatus jobStatusFromName(const std::string &name);

/** Result of one executed sweep job. */
struct JobResult
{
    std::string label;
    JobStatus status = JobStatus::Ok;
    /** Why the job did not end ok: the exception or panic text, how
     *  the run stopped short, or how its worker died. On an injection
     *  the checker flagged (outcome silent), the checker's finding. */
    std::string error;

    /** Executions the job took (> 1 only after a crash-class worker
     *  exit on the process tier). */
    unsigned attempts = 1;

    /** The run's result. A run that stopped short (failed or
     *  timed_out) holds the state it stopped in; after a panic only
     *  the fault counters and fired faults are set. */
    RunResult run;
    /** Flat named stats from run: a simulation job's when it ended
     *  ok, an injection's whenever its run came back, and whatever a
     *  custom body reports. */
    std::map<std::string, double> stats;
    JsonValue statTree;                   //!< full StatGroup snapshot
    double hostSeconds = 0;               //!< wall-clock cost of the job
    /** Kernel events per host second — a host-timing figure, kept
     *  out of `stats` so bit-identity comparisons ignore it. */
    double eventsPerHostSec = 0;

    /**
     * Process-tier exit classification of the job's final attempt:
     * "ok", "exit", "signal", "timeout", "oom" or "protocol"
     * (DESIGN.md §14). Empty on the thread tier.
     */
    std::string exitClass;

    /** Result was recovered from a job journal by --resume rather
     *  than executed in this run. */
    bool fromJournal = false;

    /** Diagnostic dump of a run that did not finish: the watchdog's
     *  or max_time's dump, the state a panic left, or what a crashing
     *  worker's signal handler wrote (the same dump format). A
     *  machine check leaves none. */
    std::string crashReport;

    /** A fault campaign's injection (DESIGN.md §9) sets these: how
     *  the run was classified and its plan's seed. What fired is in
     *  run.faults and run.firedFaults. Unset on every other job, and
     *  on an injection whose body threw or whose worker died. */
    std::optional<FaultOutcome> outcome;
    std::uint64_t planSeed = 0;
};

/** One runnable job: a configuration under a workload. */
struct SweepPoint
{
    std::string label;   //!< unique within the sweep ("P4/OLTP")
    SystemConfig config;
    WorkloadDecl workload;
    Tick maxTime = 100 * 1000 * ticksPerUs; //!< simulated-time bound

    /** When set, the job runs this body instead of the job body
     *  (litmus sweep, the cmi study, fault campaign); it must be
     *  self-contained and deterministic like any other point. Its
     *  result is the job's (the runner fills in the label and the
     *  host timing). A body that runs a workload passes the abort
     *  check on to runSimulation, as the campaign does, whose result
     *  says whether the host stopped it. */
    std::function<JobResult(const AbortCheck &)> custom;
};

/**
 * A declared experiment grid: configurations x workloads, plus any
 * hand-added points that do not fit the cross product.
 */
struct SweepSpec
{
    explicit SweepSpec(std::string name_ = "sweep")
        : name(std::move(name_))
    {}

    std::string name;

    SweepSpec &addConfig(SystemConfig cfg);
    SweepSpec &addWorkload(std::string wl_name, WorkloadFactory make,
                           std::uint64_t total_work);
    SweepSpec &addPoint(SweepPoint pt);

    /** Grid (configs x workloads, in declaration order) + extras. */
    std::vector<SweepPoint> expand() const;

    std::vector<SystemConfig> configs;
    std::vector<WorkloadDecl> workloads;
    std::vector<SweepPoint> extraPoints;
    Tick maxTime = 100 * 1000 * ticksPerUs;
};

/**
 * Serialize / parse one job result as the per-job JSON object of the
 * sweep report schema. The round trip preserves every field the
 * aggregate report and the bit-identity comparisons consume (flat
 * stats, stat tree, status, error, fastpath/profile instrumentation,
 * an injection's `faults` record), which is what makes a --resume'd
 * report provably identical to an uninterrupted run: journal-recovered
 * jobs re-enter the report through exactly this path.
 * jobResultFromJson throws std::runtime_error on a value off the
 * schema: a label or status that is not a string, an unknown status
 * or fault outcome, or `attempts` that is not an integer in [1, 2^32).
 */
JsonValue jobResultToJson(const JobResult &j,
                          bool include_stat_tree = true);
JobResult jobResultFromJson(const JsonValue &v);

/** Flatten a RunResult into the report's named-stat map. */
std::map<std::string, double> flattenRunResult(const RunResult &r);

/**
 * flattenRunResult minus the keys that legitimately differ between
 * the fast and slow datapaths (events_executed: the inline fast path
 * completes L1 hits with zero kernel events). Use this map when
 * asserting fast-vs-slow bit-identity; every key in it must match
 * exactly.
 */
std::map<std::string, double>
flattenRunResultComparable(const RunResult &r);

/** Executed sweep: job results in spec order plus execution metadata. */
struct SweepReport
{
    std::string name;
    unsigned threads = 1;
    /** Execution tier that ran the jobs: "thread" or "process". */
    std::string exec = "thread";
    double hostSeconds = 0;
    /** Cancellation (SweepOptions::cancel) stopped the sweep early:
     *  in-flight jobs were drained, queued ones marked Cancelled. The
     *  report is valid but partial. */
    bool interrupted = false;
    std::vector<JobResult> jobs;

    /** Find a job by label (nullptr when absent). */
    const JobResult *job(const std::string &label) const;

    /** Count of jobs with the given status. */
    unsigned count(JobStatus s) const;

    /**
     * Machine-readable report (see DESIGN.md "Sweep harness" for the
     * schema). @p include_stat_tree controls whether each job embeds
     * the full StatGroup snapshot or only the flat stats map.
     */
    JsonValue toJson(bool include_stat_tree = true) const;

    /** Serialize toJson() to a file; returns false on I/O failure. */
    bool writeJsonFile(const std::string &path,
                       bool include_stat_tree = true) const;
};

} // namespace piranha

#endif // PIRANHA_HARNESS_SWEEP_H
