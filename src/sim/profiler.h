/**
 * @file
 * Sampling host-time profiler for attributing simulator CPU time.
 *
 * PIR_PROF(zone) marks the rest of its scope as belonging to one
 * simulator component class (core, l1, l2, ics, engine, mem, kernel).
 * The marker is one store to the calling thread's current-zone
 * variable on entry and one on exit (restoring the enclosing zone), so
 * it is cheap enough to leave in every build. A SIGPROF interval timer
 * that counts process CPU time interrupts whichever thread is running;
 * the handler adds one sample to that thread's counter for its current
 * zone. Attribution is exclusive: a nested zone takes the samples until
 * its scope ends, so "kernel" means "event loop minus the components
 * it dispatched into" and "other" means "on this thread, in no zone".
 *
 * reset() arms the timer (idempotently: a forked worker inherits the
 * handler but not the timer, so every run start checks) and zeroes
 * this thread's counters; snapshot() splits the thread's CPU time since
 * then across zones by sample share. PiranhaSystem::run brackets each
 * run with them on its own thread and puts the result in
 * RunResult::profile, so per-component breakdowns appear per job in
 * the sweep JSON (DESIGN.md §8).
 *
 * The profiler never feeds the StatGroup tree or flattenRunResult:
 * host-time attribution varies run to run and must not participate in
 * bit-identity comparisons.
 */

#ifndef PIRANHA_SIM_PROFILER_H
#define PIRANHA_SIM_PROFILER_H

#include <atomic>
#include <map>
#include <string>

namespace piranha {
namespace prof {

enum class Zone : unsigned
{
    Kernel, //!< event-loop dispatch + run-control overhead
    Core,
    L1,
    L2,
    Ics,
    Engine,
    Mem,
    Other, //!< outside any zone (setup, teardown, stats)
    Count,
};

const char *zoneName(Zone z);

/**
 * Arm the sampling timer if it is not running and zero this thread's
 * samples and CPU-time origin. Call at the start of each run.
 */
void reset();

/**
 * This thread's CPU seconds since reset(), split across zones by
 * their share of the samples taken since then. Zones without samples
 * are omitted; the result is empty until the first sample arrives.
 */
std::map<std::string, double> snapshot();

namespace detail {

// Only this thread and the SIGPROF handler that interrupts it touch
// the current zone, so relaxed order suffices. A lock-free atomic with
// constant initialization: each access is one plain load or store of
// static TLS.
static_assert(std::atomic<Zone>::is_always_lock_free);
inline constinit thread_local std::atomic<Zone> currentZone{Zone::Other};

} // namespace detail

/** RAII zone switch (use through PIR_PROF). */
class ScopedZone
{
  public:
    explicit ScopedZone(Zone z)
        : _prev(detail::currentZone.load(std::memory_order_relaxed))
    {
        detail::currentZone.store(z, std::memory_order_relaxed);
    }

    ~ScopedZone()
    {
        detail::currentZone.store(_prev, std::memory_order_relaxed);
    }

    ScopedZone(const ScopedZone &) = delete;
    ScopedZone &operator=(const ScopedZone &) = delete;

  private:
    Zone _prev;
};

#define PIR_PROF_CAT2(a, b) a##b
#define PIR_PROF_CAT(a, b) PIR_PROF_CAT2(a, b)
#define PIR_PROF(zone)                                                 \
    ::piranha::prof::ScopedZone PIR_PROF_CAT(_pir_prof_, __LINE__)(    \
        ::piranha::prof::Zone::zone)

} // namespace prof
} // namespace piranha

#endif // PIRANHA_SIM_PROFILER_H
