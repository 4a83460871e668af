/**
 * @file
 * Table-driven coherence litmus tests.
 *
 * A LitmusProgram names a small set of memory locations and a few
 * threads (node/cpu pairs) each running a short straight-line sequence
 * of loads and stores. runLitmus() builds a fresh multi-chip
 * PiranhaSystem, issues every thread's operations through the L1
 * ports with seeded-random inter-operation delays (so different seeds
 * explore different protocol interleavings), lets the system settle,
 * reads back the final memory state, and replays the captured
 * coherence trace through the axiomatic checker (src/check/checker.h).
 * Cross-chip messages take the same delivery fabric as every other
 * PiranhaSystem run, so the suite checks the production schedule.
 *
 * Two independent oracles judge a run:
 *  - the program's `forbidden` predicate over the observed outcome
 *    (classic litmus-style: "r1 == 0 && r2 == 0 is forbidden"), and
 *  - the checker's per-location axioms over the full event trace.
 *
 * The fault-seeding tests (tests/litmus/fault_seeding_test.cc) do not
 * go through here: each seeded ProtocolFault has its own targeted
 * probe on the test fixture.
 */

#ifndef PIRANHA_CHECK_LITMUS_H
#define PIRANHA_CHECK_LITMUS_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/checker.h"
#include "check/trace.h"
#include "mem/coherence_types.h"

namespace piranha {

/** A litmus location: 8-byte slot @p offset within logical line @p line.
 *  Lines are materialized as distinct cache lines; line i is homed at
 *  node (i % nodes) so programs can pin home placement. */
struct LitmusLoc
{
    unsigned line = 0;
    unsigned offset = 0; //!< byte offset within the line (8-aligned)
};

/** One thread operation. Loads record their result in program order. */
struct LitmusOp
{
    MemOp op = MemOp::Load;
    unsigned loc = 0; //!< index into LitmusProgram::locs
    std::uint64_t value = 0;
    unsigned size = 8;
};

/** A thread: a CPU on a node running ops in order (with random gaps). */
struct LitmusThread
{
    unsigned node = 0;
    unsigned cpu = 0;
    std::vector<LitmusOp> ops;
};

/** Observed results of one run. */
struct LitmusOutcome
{
    /** loads[t][k] = k-th load result of thread t, program order. */
    std::vector<std::vector<std::uint64_t>> loads;
    /** final[l] = settled value of location l. */
    std::vector<std::uint64_t> final;
};

/** A litmus program plus its forbidden-outcome predicate. */
struct LitmusProgram
{
    std::string name;
    unsigned nodes = 1;
    unsigned cpusPerChip = 2;
    std::vector<LitmusLoc> locs;
    std::vector<std::uint64_t> init; //!< initial value per loc
    std::vector<LitmusThread> threads;
    /** Returns true if the outcome is coherence-forbidden. Null =
     *  only the axiomatic checker judges the run. */
    std::function<bool(const LitmusOutcome &)> forbidden;
    std::string forbiddenDesc; //!< human description of the predicate
};

struct LitmusRunOptions
{
    std::uint64_t seed = 1;
    /** Run under the parallel engine (DESIGN.md §13): one event queue
     *  and one worker per chip, every phase driven to quiescence. */
    bool parallel = false;
};

struct LitmusResult
{
    LitmusOutcome outcome;
    CheckReport report;        //!< axiomatic verdict over the trace
    bool forbiddenHit = false; //!< program predicate fired
    bool completed = false;    //!< every op of every thread finished
    std::vector<TraceEvent> trace; //!< captured events (oldest first)

    bool ok() const { return completed && !forbiddenHit && report.ok(); }
};

/** Execute @p prog once under @p opt. */
LitmusResult runLitmus(const LitmusProgram &prog,
                       const LitmusRunOptions &opt = {});

/** The built-in suite (CoRR, CoWW, CoWR, CoRW, lost-update, SB
 *  migration, ... — see litmus.cc). */
const std::vector<LitmusProgram> &builtinLitmusPrograms();

} // namespace piranha

#endif // PIRANHA_CHECK_LITMUS_H
