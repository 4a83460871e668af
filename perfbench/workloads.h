/**
 * @file
 * The benchmark's four workloads and one timed sample of each.
 *
 * Every workload is generated in this process from the seed the
 * benchmark receives; the simulator receives only the generated
 * workload object. Caches start cold in every sample (a fresh
 * PiranhaSystem per run, no warm-up).
 */

#ifndef PIRANHA_PERFBENCH_WORKLOADS_H
#define PIRANHA_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "system/config.h"
#include "trace.h"
#include "workload/workload.h"

namespace perfbench {

enum class Kind
{
    P8Oltp,
    P8Dss,
    P4x8Oltp,
    Fig7Sweep,
};

/** A named workload: system, generator and work size. */
struct WorkloadDef
{
    const char *name;
    Kind kind;
    std::uint64_t totalWork; //!< split across the system's CPUs
    const char *workUnit;
    const char *system;      //!< configuration, for the run metadata
};

const std::vector<WorkloadDef> &workloadDefs();

const WorkloadDef *findWorkload(const std::string &name);

/** The generator of @p w (OLTP or DSS) at @p seed. */
std::unique_ptr<piranha::Workload> makeGenerator(const WorkloadDef &w,
                                                 std::uint64_t seed);

/** The single system @p w runs on (not used by fig7_sweep). */
piranha::SystemConfig systemConfig(const WorkloadDef &w);

/** Seconds to construct @p w's generator and system(s) once, as a
 *  sample does before its run. */
double measureSetup(const WorkloadDef &w, std::uint64_t seed);

/** One timed sample: set-up, run, snapshot and its checks. */
struct SampleResult
{
    bool ok = true;
    std::string failure;     //!< first failed check, when !ok

    double setupS = 0;       //!< workload + PiranhaSystem construction
    double constructS = 0;   //!< PiranhaSystem construction alone
    double hostS = 0;        //!< the timed run (a sweep: its wall time)
    double cpuS = 0;         //!< process CPU seconds of the timed run
    double snapshotS = 0;    //!< stat snapshot and digest
    double instructions = 0; //!< simulated, all CPUs (all jobs)
    std::uint64_t digest = 0;//!< FNV-1a of the stat tree(s)
    LayerTally layers;

    // Traced samples only: InstrStream::next, and the run's self time
    // (its span minus the time inside next).
    std::uint64_t nextCalls = 0;
    double nextSelfS = 0;
    double runSelfS = 0;

    // fig7_sweep only.
    double harnessWallS = 0;
    double jobSSum = 0;
    unsigned threads = 0;
    unsigned jobsFailed = 0;
    double paperErrPct = -1; //!< -1: no paper reference
    std::vector<Metric> paperPoints; //!< simulated values vs the paper
};

/**
 * Run one sample of @p w at @p seed. With a tracer, the sample records
 * spans under run id @p run and times every InstrStream::next.
 */
SampleResult runSample(const WorkloadDef &w, std::uint64_t seed,
                       Tracer *tracer, unsigned run);

} // namespace perfbench

#endif // PIRANHA_PERFBENCH_WORKLOADS_H
