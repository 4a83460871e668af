/**
 * @file
 * Coherence event tracing.
 *
 * A CoherenceTracer is a per-run ring buffer of typed protocol events
 * appended by hooks in the L1s, the L2 banks (duplicate-tag view) and
 * the protocol engines. The memory system holds only a nullable
 * pointer: a run that does not attach a tracer pays one predictable
 * branch per hook (PIR_TRACE below).
 *
 * src/check/checker.h replays a trace against the protocol's
 * per-location axioms, in the process that recorded it.
 */

#ifndef PIRANHA_CHECK_TRACE_H
#define PIRANHA_CHECK_TRACE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/coherence_types.h"
#include "sim/types.h"

namespace piranha {

/** Typed coherence trace record kinds. */
enum class TraceKind : std::uint8_t
{
    Init,        //!< harness: known initial memory contents
    StoreIssue,  //!< store entered a store buffer (or issued atomically)
    StoreCommit, //!< store applied to a writable L1 line
    LoadCommit,  //!< load value bound (SB forward, L1 hit, or fill)
    Wh64,        //!< write-hint made a full line's contents undefined
    Fill,        //!< L1 installed a line; state = granted L1State
    InvalRecv,   //!< L1 processed an invalidation
    FwdService,  //!< owner L1 serviced a forward; state = its new state
    VictimDrop,  //!< L1 victim left the cache (replacement)
    VictimTaken, //!< L2 took an L1's victim (aux = surrendering L1)
    InvalSent,   //!< L2 targeted an L1 for invalidation (aux = L1 id)
    OwnerChange, //!< L2 dup-tag ownership transfer (aux = new owner L1)
    WbInstall,   //!< L2 installed L1 write-back / victim data
    L2Evict,     //!< L2 line eviction (state = 1 when dirty)
    CmiPlan,     //!< engine planned CMI chains (value = target count)
    CmiInval,    //!< CMI-driven local inval (state = 1 when applied)
    Marker,      //!< harness marker; value markerSettled = "settled"
};

/** Marker code: all traffic drained, every copy must be current. */
inline constexpr std::uint64_t markerSettled = 1;

const char *traceKindName(TraceKind k);

/**
 * One trace record. Field meaning varies by kind (see DESIGN.md
 * "Coherence trace schema"); unused fields hold their defaults.
 */
struct TraceEvent
{
    Tick tick = 0;
    TraceKind kind = TraceKind::Marker;
    int node = 0;
    int l1 = -1;  //!< acting L1 id; -1 for L2/engine-side events
    int aux = -1; //!< peer/target L1 id where relevant
    unsigned state = 0; //!< granted/resulting L1State, dirty/applied flag
    unsigned size = 0;  //!< access size in bytes (loads/stores/Init)
    FillSource src = FillSource::L1; //!< service source (LoadCommit)
    Addr addr = 0;
    std::uint64_t value = 0;
    std::uint32_t mask = 0; //!< dup-tag sharer mask (L2-side events)

    bool operator==(const TraceEvent &o) const = default;
};

/** Render one event as a single human-readable line. */
std::string renderTraceEvent(std::size_t idx, const TraceEvent &e);

/**
 * Per-run ring buffer of TraceEvents. Not thread-safe: one tracer
 * belongs to one simulation universe (one EventQueue).
 */
class CoherenceTracer
{
  public:
    explicit CoherenceTracer(std::size_t capacity = std::size_t(1) << 20);

    /** Append one event (overwrites the oldest when full). */
    void
    record(const TraceEvent &e)
    {
        if (_ring.size() < _cap)
            _ring.push_back(e);
        else
            _ring[_recorded % _cap] = e;
        ++_recorded;
    }

    /** Harness: declare initial memory contents (tick-0 pseudo-write). */
    void init(Addr addr, unsigned size, std::uint64_t value);

    /** Harness: insert a Marker event with @p code. */
    void mark(Tick tick, std::uint64_t code);

    std::uint64_t recorded() const { return _recorded; }
    std::uint64_t dropped() const
    {
        return _recorded > _cap ? _recorded - _cap : 0;
    }
    std::size_t capacity() const { return _cap; }

    /** Buffered events, oldest first (linearizes the ring). */
    std::vector<TraceEvent> events() const;

    void clear();

  private:
    std::size_t _cap;
    std::vector<TraceEvent> _ring;
    std::uint64_t _recorded = 0;
};

/**
 * Merge per-chip trace streams (parts[n] = chip n's events, oldest
 * first) into canonical order: ascending tick, ties broken by node,
 * further ties by each chip's own record order. This is the
 * engine-independent linearization used to compare serial and
 * parallel runs (DESIGN.md §13): same-tick events on different chips
 * are causally unordered because every cross-chip interaction spans
 * nonzero latency, so any tie-break is a valid execution order — this
 * one is just deterministic.
 */
inline std::vector<TraceEvent>
mergeShardTraces(const std::vector<std::vector<TraceEvent>> &parts)
{
    std::vector<TraceEvent> out;
    std::size_t total = 0;
    for (const auto &p : parts)
        total += p.size();
    out.reserve(total);
    for (const auto &p : parts)
        out.insert(out.end(), p.begin(), p.end());
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.tick < b.tick;
                     });
    return out;
}

/**
 * Hook macro used at every instrumentation point in the memory
 * system. @p tracer is a CoherenceTracer pointer (may be null).
 */
#define PIR_TRACE(tracer, ...)                                         \
    do {                                                               \
        if (tracer)                                                    \
            (tracer)->record(__VA_ARGS__);                             \
    } while (0)

} // namespace piranha

#endif // PIRANHA_CHECK_TRACE_H
