/**
 * @file
 * Steady-state allocation accounting for the event kernel. This test
 * binary overrides the global operator new/delete with counting
 * versions (safe because every tests/<name>_test.cc links into its
 * own executable) and checks that, once warm, scheduling and executing
 * member events, pooled events and small-capture closures performs
 * zero heap allocations.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/event_queue.h"

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

// Not inlined: inlined into a new-expression's cleanup path, the
// free() below would read to GCC as freeing operator new's memory
// (-Wmismatched-new-delete), though the operator new above is malloc.
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

struct Counter
{
    std::uint64_t n = 0;
    void bump() { ++n; }
};

/** Allocations performed by @p body. */
template <class Fn>
std::uint64_t
allocsIn(Fn &&body)
{
    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    body();
    return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(EventAlloc, MemberEventSchedulingIsAllocationFree)
{
    EventQueue eq;
    Counter c;
    MemberEvent<Counter, &Counter::bump> ev(&c, "bump");
    // Warm-up: first heap insertion may grow the far-heap vector.
    eq.scheduleIn(ev, 700000);
    eq.run();
    std::uint64_t allocs = allocsIn([&] {
        for (int i = 0; i < 10000; ++i) {
            eq.scheduleIn(ev, 2000); // wheel path
            eq.run();
            eq.scheduleIn(ev, 700000); // far-heap path
            eq.run();
        }
    });
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(c.n, 20001u);
}

TEST(EventAlloc, PooledEventChurnIsAllocationFree)
{
    struct PayloadEvent final : Event
    {
        EventPool<PayloadEvent> *pool = nullptr;
        std::uint64_t *sink = nullptr;
        std::uint64_t payload = 0;
        void
        process() override
        {
            *sink += payload;
            pool->release(this);
        }
    };

    EventQueue eq;
    EventPool<PayloadEvent> pool;
    std::uint64_t sink = 0;
    // Warm-up to the in-flight high-water mark (3).
    for (int i = 0; i < 3; ++i) {
        PayloadEvent *ev = pool.acquire();
        ev->pool = &pool;
        ev->sink = &sink;
        ev->payload = 1;
        eq.scheduleIn(*ev, 2000 * (i + 1));
    }
    eq.run();
    std::uint64_t allocs = allocsIn([&] {
        for (int i = 0; i < 10000; ++i) {
            for (int k = 0; k < 3; ++k) {
                PayloadEvent *ev = pool.acquire();
                ev->pool = &pool;
                ev->sink = &sink;
                ev->payload = 1;
                eq.scheduleIn(*ev, 2000 * (k + 1));
            }
            eq.run();
        }
    });
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(pool.size(), 3u);
    EXPECT_EQ(sink, 30003u);
}

TEST(EventAlloc, SmallCaptureClosureIsAllocationFreeOnceWarm)
{
    EventQueue eq;
    std::uint64_t n = 0;
    std::uint64_t *pn = &n;
    // Warm-up grows the lambda pool to the high-water mark.
    for (int i = 0; i < 4; ++i)
        eq.scheduleIn(2000 * (i + 1), [pn] { ++*pn; });
    eq.run();
    // A one-pointer capture fits std::function's small buffer, and
    // the pooled LambdaEvent is recycled: steady state allocates
    // nothing.
    std::uint64_t allocs = allocsIn([&] {
        for (int i = 0; i < 10000; ++i) {
            for (int k = 0; k < 4; ++k)
                eq.scheduleIn(2000 * (k + 1), [pn] { ++*pn; });
            eq.run();
        }
    });
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(n, 40004u);
}

TEST(EventAlloc, DescheduleRescheduleIsAllocationFree)
{
    EventQueue eq;
    Counter c;
    MemberEvent<Counter, &Counter::bump> ev(&c, "bump");
    MemberEvent<Counter, &Counter::bump> far_ev(&c, "bump-far");
    eq.scheduleIn(far_ev, 700000);
    eq.run(); // warm the far heap
    std::uint64_t allocs = allocsIn([&] {
        for (int i = 0; i < 10000; ++i) {
            eq.scheduleIn(ev, 4000);
            eq.reschedule(ev, eq.curTick() + 8000);
            eq.deschedule(ev);
            eq.scheduleIn(far_ev, 700000);
            eq.deschedule(far_ev);
        }
    });
    // Far-heap deschedules leave stale entries that are lazily
    // reclaimed; the vector reaches a bounded high-water mark during
    // the loop, so allow the few growth reallocations and nothing
    // more (growth is geometric: ~log2(10000) doublings).
    EXPECT_LE(allocs, 20u);
    eq.run();
}

} // namespace
} // namespace piranha
