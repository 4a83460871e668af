/**
 * @file
 * Offline axiomatic coherence checker.
 *
 * checkCoherence() replays a coherence trace (src/check/trace.h) and
 * verifies, per location, that the run was explainable under the
 * protocol's per-location axioms:
 *
 *  - read-own-write: a load whose byte is covered by an uncommitted
 *    store of the same CPU must return exactly that store's data
 *    (the store buffer forwards it);
 *  - value integrity: every other load byte must match some write
 *    (Init / StoreCommit / Wh64-wildcard) to that byte;
 *  - per-CPU monotonicity: the writes a CPU observes for a byte never
 *    move backwards in that byte's commit order (eager exclusive
 *    replies make *cross-node staleness* legal, so the checker does
 *    not demand global recency mid-run);
 *  - settled recency: after a Marker(markerSettled) event — emitted by
 *    the harness once all traffic has drained — every load must
 *    return the final committed value;
 *  - occupancy: within one node, the dup-tag view may grant exclusive
 *    (E/M) only while no peer L1 holds a live copy, and a shared fill
 *    may not coexist with a peer's exclusive copy. Copies whose
 *    invalidation has been sent but not yet delivered are "dying" and
 *    excluded, and a victim is gone once the L2 takes it
 *    (VictimTaken), before its L1 records the VictimDrop;
 *  - no lost work: at end of trace, every InvalSent was delivered and
 *    (in a settled trace) every issued store committed.
 *
 * A violation reports the violating event, the most relevant earlier
 * event, and CheckReport::summary() renders the minimal window of
 * same-line events between the two.
 */

#ifndef PIRANHA_CHECK_CHECKER_H
#define PIRANHA_CHECK_CHECKER_H

#include <cstddef>
#include <string>
#include <vector>

#include "check/trace.h"

namespace piranha {

/** One axiom violation, anchored to trace event indices. */
struct CheckViolation
{
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    std::string axiom;  //!< e.g. "read-own-write", "occupancy"
    std::string detail; //!< human-readable description
    std::size_t eventIdx = npos; //!< the violating event
    std::size_t refIdx = npos;   //!< most relevant earlier event
    Addr addr = 0;               //!< byte (or line) address involved
};

/** Outcome of replaying one trace. */
struct CheckReport
{
    std::vector<CheckViolation> violations;
    std::uint64_t eventsChecked = 0;
    bool truncated = false; //!< ring dropped events; checks skipped
    bool sawSettleMarker = false;

    bool ok() const { return violations.empty() && !truncated; }

    /**
     * Render every violation with its minimal event window: the
     * same-line events between refIdx and eventIdx (at most
     * @p window lines, middle elided).
     */
    std::string summary(const std::vector<TraceEvent> &trace,
                        std::size_t window = 16) const;
};

/**
 * Replay @p trace and check the axioms above, stopping after 16
 * violations. @p dropped is the tracer's dropped-event count: a
 * truncated trace cannot be checked soundly, so the report only flags
 * the truncation.
 */
CheckReport checkCoherence(const std::vector<TraceEvent> &trace,
                           std::uint64_t dropped = 0);

} // namespace piranha

#endif // PIRANHA_CHECK_CHECKER_H
