/**
 * @file
 * Workload abstraction (paper §3.1).
 *
 * The paper evaluates Oracle 7.3.2 running TPC-B-style OLTP and a
 * TPC-D Q6-style DSS query under SimOS-Alpha. Neither the commercial
 * database nor the full-system traces are available, so the workloads
 * here are structural synthetics (see DESIGN.md §4): they generate
 * real addresses over a shared database layout (SGA metadata, buffer
 * cache, branch/teller/account/history tables, log buffer, per-process
 * private regions, user and kernel code footprints), so cache
 * pressure, sharing, migratory rows and lock contention arise
 * structurally rather than from sampled distributions. Generation is
 * pull-based with timing feedback: spin locks and I/O waits observe
 * simulated time.
 */

#ifndef PIRANHA_WORKLOAD_WORKLOAD_H
#define PIRANHA_WORKLOAD_WORKLOAD_H

#include <memory>
#include <string>

#include "cpu/instr_stream.h"
#include "sim/event_queue.h"
#include "system/address_map.h"

namespace piranha {

/** A multi-CPU workload: a stream factory plus OOO-model parameters. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const std::string &name() const = 0;

    /** ILP/overlap the OOO baseline extracts from this workload. */
    virtual WorkloadIlp ilp() const = 0;

    /** RNG seed the workload was built with (0 when seedless). With
     *  the configuration and the work target it fixes every op the
     *  workload's streams produce. */
    virtual std::uint64_t seed() const { return 0; }

    /**
     * Create the stream for one CPU. @p work_target is the number of
     * work units (transactions / scan chunks) after which the stream
     * reports Done. @p node and @p amap let the generator place
     * process-private data on pages homed at the CPU's own node
     * (first-touch placement, as the OS page allocator would).
     */
    virtual std::unique_ptr<InstrStream>
    makeStream(EventQueue &eq, unsigned global_cpu, unsigned total_cpus,
               std::uint64_t work_target, NodeId node,
               const AddressMap &amap) = 0;
};

} // namespace piranha

#endif // PIRANHA_WORKLOAD_WORKLOAD_H
