#include "sim/profiler.h"

#include <cstdint>
#include <ctime>

#include <signal.h>
#include <sys/time.h>

namespace piranha {
namespace prof {

namespace {

constexpr unsigned kZones = static_cast<unsigned>(Zone::Count);

/** Requested sampling interval of process CPU time. The kernel checks
 *  CPU timers once per tick, so a 250 Hz kernel delivers at most one
 *  sample per 4 ms; snapshot() scales by measured CPU time, not by
 *  this constant. */
constexpr long kIntervalUs = 1000;

// Written by the SIGPROF handler on its own thread, read and zeroed by
// that thread: lock-free and relaxed, like detail::currentZone.
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
constinit thread_local std::atomic<std::uint64_t> tSamples[kZones];
constinit thread_local double tCpuAtReset = 0;

void
onSample(int)
{
    unsigned z = static_cast<unsigned>(
        detail::currentZone.load(std::memory_order_relaxed));
    tSamples[z].fetch_add(1, std::memory_order_relaxed);
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** Install the handler once per process image and start the timer
 *  unless it already runs (fork() clears interval timers). */
void
arm()
{
    static const bool installed = [] {
        struct sigaction sa = {};
        sa.sa_handler = onSample;
        sa.sa_flags = SA_RESTART;
        sigemptyset(&sa.sa_mask);
        return sigaction(SIGPROF, &sa, nullptr) == 0;
    }();
    if (!installed)
        return;
    itimerval cur = {};
    if (getitimer(ITIMER_PROF, &cur) == 0 &&
        (cur.it_interval.tv_sec != 0 || cur.it_interval.tv_usec != 0))
        return;
    itimerval it = {};
    it.it_interval.tv_usec = kIntervalUs;
    it.it_value.tv_usec = kIntervalUs;
    setitimer(ITIMER_PROF, &it, nullptr);
}

} // namespace

const char *
zoneName(Zone z)
{
    switch (z) {
      case Zone::Kernel: return "kernel";
      case Zone::Core: return "core";
      case Zone::L1: return "l1";
      case Zone::L2: return "l2";
      case Zone::Ics: return "ics";
      case Zone::Engine: return "engine";
      case Zone::Mem: return "mem";
      case Zone::Other: return "other";
      case Zone::Count: break;
    }
    return "?";
}

void
reset()
{
    arm();
    for (auto &n : tSamples)
        n.store(0, std::memory_order_relaxed);
    tCpuAtReset = threadCpuSeconds();
}

std::map<std::string, double>
snapshot()
{
    std::uint64_t n[kZones] = {};
    std::uint64_t total = 0;
    for (unsigned z = 0; z < kZones; ++z) {
        n[z] = tSamples[z].load(std::memory_order_relaxed);
        total += n[z];
    }
    std::map<std::string, double> out;
    if (total == 0)
        return out;
    double cpu = threadCpuSeconds() - tCpuAtReset;
    for (unsigned z = 0; z < kZones; ++z)
        if (n[z] > 0)
            out[zoneName(static_cast<Zone>(z))] =
                cpu * static_cast<double>(n[z]) /
                static_cast<double>(total);
    return out;
}

} // namespace prof
} // namespace piranha
