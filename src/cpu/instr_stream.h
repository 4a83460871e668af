/**
 * @file
 * The instruction-stream abstraction that drives the CPU timing
 * models.
 *
 * A stream produces a sequence of dynamic operations — compute
 * bundles, loads, stores, write hints — each tagged with the program
 * counter so the core generates instruction fetches with realistic
 * footprints. Streams are pulled at execution time, so a workload
 * generator can react to simulated time (spin locks, I/O waits,
 * process switches) with real timing feedback.
 *
 * Two families of streams exist, and both feed the same timing cores:
 * the seeded workload generators (OLTP / DSS / TPC-C synthetics in
 * workload/) and the Alpha-subset ISA interpreter (isa/). The
 * simulation is deterministic, so the system configuration and a
 * generator's seed and work target fix every op it produces.
 */

#ifndef PIRANHA_CPU_INSTR_STREAM_H
#define PIRANHA_CPU_INSTR_STREAM_H

#include <cstdint>

#include "sim/types.h"

namespace piranha {

/** One dynamic operation from a stream. */
struct StreamOp
{
    enum class Kind : std::uint8_t
    {
        Compute, //!< `count` single-cycle instructions, no memory
        Load,
        Store,
        Wh64,
        Idle,    //!< stall for `count` cycles (I/O wait, halted)
        Done,    //!< stream finished
    };

    Kind kind = Kind::Done;
    Addr pc = 0;              //!< PC of (the first of) these instrs
    std::uint32_t count = 1;  //!< Compute/Idle: instructions/cycles
    Addr addr = 0;            //!< memory operand
    std::uint8_t size = 8;
    std::uint64_t value = 0;  //!< store data
    bool atomic = false;      //!< store-conditional semantics
};

/** Pull-based dynamic instruction stream. */
class InstrStream
{
  public:
    virtual ~InstrStream() = default;

    /**
     * Produce the next operation. Called by the core when the
     * previous operation has completed; the current simulated time is
     * visible to the generator through its system handle.
     */
    virtual StreamOp next() = 0;

    /** Work units (e.g. transactions) completed so far. */
    virtual std::uint64_t workDone() const { return 0; }

    /**
     * Completion feedback for memory operations: loads deliver the
     * value read through the coherent memory system. Functional
     * interpreters (the ISA core) consume this; statistical
     * generators ignore it.
     */
    virtual void memCompleted(const StreamOp &, std::uint64_t) {}
};

/**
 * Workload-dependent parameters consumed by the out-of-order core
 * model: how much instruction-level parallelism a wide-issue machine
 * extracts, and how much of the memory stall it can hide (paper §1:
 * OLTP gains little from wide issue and out-of-order execution; DSS
 * considerably more).
 */
struct WorkloadIlp
{
    double issueIlp = 1.0;   //!< effective sustainable IPC ceiling
    double memOverlap = 0.0; //!< fraction of miss latency hidden
};

} // namespace piranha

#endif // PIRANHA_CPU_INSTR_STREAM_H
