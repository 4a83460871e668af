/**
 * @file
 * Heap allocations of a multi-chip run. This test binary overrides the
 * global operator new/delete with counting versions (as
 * event_alloc_test.cc does) and runs a configPn(4, 8) OLTP system,
 * whose misses reach the protocol engines, the directory, the network
 * and its delivery fabric. Once those paths are warm they must not
 * allocate per event: doubling the work may add allocations worth
 * at most 2% of the extra events. What is left is growth with the
 * touched footprint (line tables, backing-store slabs, pool
 * high-water marks) and the odd cruise-missile route.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "system/config.h"
#include "system/sim_system.h"
#include "workload/oltp.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

// Not inlined, for the reason given in event_alloc_test.cc.
[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace piranha {
namespace {

struct Counted
{
    std::uint64_t allocs = 0; //!< construction and run together
    std::uint64_t events = 0;
};

/** Build and run an 8-chip P4 OLTP system for @p txns_per_cpu. */
Counted
runP4x8Oltp(std::uint64_t txns_per_cpu)
{
    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    OltpWorkload wl(OltpParams{}, 1);
    PiranhaSystem sys(configPn(4, 8));
    RunResult r = sys.run(wl, txns_per_cpu);
    EXPECT_FALSE(r.watchdogTripped) << r.watchdogReason;
    EXPECT_EQ(r.work, 32 * txns_per_cpu);
    Counted c;
    c.allocs = g_allocs.load(std::memory_order_relaxed) - before;
    c.events = r.eventsExecuted;
    return c;
}

TEST(MultiChipAlloc, ExtraWorkAllocatesUnderTwoPercentOfExtraEvents)
{
    // Both runs build the same system, so construction cancels out
    // of the difference.
    constexpr std::uint64_t kWork = 6;
    Counted w = runP4x8Oltp(kWork);
    Counted w2 = runP4x8Oltp(2 * kWork);
    ASSERT_GT(w2.events, w.events);
    ASSERT_GE(w2.allocs, w.allocs);
    double extra_events = static_cast<double>(w2.events - w.events);
    double extra_allocs = static_cast<double>(w2.allocs - w.allocs);
    EXPECT_LT(extra_allocs, 0.02 * extra_events)
        << "W: " << w.allocs << " allocs, " << w.events << " events; "
        << "2W: " << w2.allocs << " allocs, " << w2.events << " events";
}

} // namespace
} // namespace piranha
