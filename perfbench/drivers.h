/**
 * @file
 * Layer drivers: short loops that call one simulator layer through its
 * public functions and report host cost per operation. Each driver
 * checks its own outputs against a reference or a closed form (its
 * checksum); a mismatch fails the run.
 */

#ifndef PIRANHA_PERFBENCH_DRIVERS_H
#define PIRANHA_PERFBENCH_DRIVERS_H

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct DriverResult
{
    explicit DriverResult(std::string n) : name(std::move(n)) {}

    std::string name;
    bool ok = true;
    std::string failure;
    std::vector<Metric> metrics;
};

/** Every layer driver, each inside its own span under run id @p run. */
std::vector<DriverResult> runLayerDrivers(Tracer &tracer, unsigned run);

/**
 * sim.parallel: the sharded engine (shards <= nproc) against the
 * serial engine with drainStop on @p w's system, at a quarter of the
 * workload's work and generator seed 1, like the other drivers a fixed
 * input. Their stat trees must match. Metrics are zero for a
 * single-chip system, where the engine is not on the path.
 */
DriverResult runParallelDriver(const WorkloadDef &w, Tracer &tracer,
                               unsigned run);

} // namespace perfbench

#endif // PIRANHA_PERFBENCH_DRIVERS_H
