/**
 * @file
 * Scoped host-time profiler for attributing simulator wall-clock.
 *
 * PIR_PROF(zone) opens an RAII zone that charges host time to one
 * simulator component class (core, l1, l2, ics, engine, mem, kernel)
 * until scope exit, with *exclusive* attribution: entering a nested
 * zone pauses the enclosing one, so the per-zone seconds sum to the
 * measured interval and "kernel" ends up meaning "event loop minus
 * the components it dispatched into".
 *
 * Compiled out by default (PIR_PROF expands to nothing); configure
 * with -DPIRANHA_PROFILE=ON to compile the zones in. Accounting is
 * thread_local, matching the sweep harness's one-universe-per-thread
 * model: PiranhaSystem::run snapshots the delta around the run on its
 * own thread and threads it into RunResult::profile, so per-component
 * breakdowns appear per job in the sweep JSON.
 *
 * The profiler never feeds the StatGroup tree or flattenRunResult:
 * host-time attribution varies run to run and must not participate in
 * bit-identity comparisons.
 */

#ifndef PIRANHA_SIM_PROFILER_H
#define PIRANHA_SIM_PROFILER_H

#include <chrono>
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

/** Zero this thread's accumulators and restart the clock. */
void reset();

/**
 * This thread's accumulated seconds per zone since reset(), flushing
 * the currently open zone. Zones with zero time are omitted; the
 * result is empty when profiling is compiled out.
 */
std::map<std::string, double> snapshot();

#if PIRANHA_HOST_PROFILE

namespace detail {

struct State
{
    double acc[static_cast<unsigned>(Zone::Count)] = {};
    Zone cur = Zone::Other;
    std::chrono::steady_clock::time_point last =
        std::chrono::steady_clock::now();
};

State &state();

} // namespace detail

/** RAII zone switch (use through PIR_PROF). */
class ScopedZone
{
  public:
    explicit ScopedZone(Zone z)
    {
        detail::State &s = detail::state();
        auto now = std::chrono::steady_clock::now();
        s.acc[static_cast<unsigned>(s.cur)] +=
            std::chrono::duration<double>(now - s.last).count();
        s.last = now;
        _prev = s.cur;
        s.cur = z;
    }

    ~ScopedZone()
    {
        detail::State &s = detail::state();
        auto now = std::chrono::steady_clock::now();
        s.acc[static_cast<unsigned>(s.cur)] +=
            std::chrono::duration<double>(now - s.last).count();
        s.last = now;
        s.cur = _prev;
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

#else

#define PIR_PROF(zone)                                                 \
    do {                                                               \
    } while (0)

#endif // PIRANHA_HOST_PROFILE

} // namespace prof
} // namespace piranha

#endif // PIRANHA_SIM_PROFILER_H
