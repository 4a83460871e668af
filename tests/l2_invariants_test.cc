/**
 * @file
 * L2 bank bookkeeping over whole OLTP runs: every bank's
 * duplicate-tag records agree with its tag array and pending entries
 * are held exactly by lines with a transaction or blocked requests,
 * checked every few microseconds of simulated time; once the run has
 * drained, no idle record is left behind and every bank's pending
 * pool is back to empty. Every new owner a bank records is traced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "core/piranha.h"
#include "test_system.h"

namespace piranha {
namespace {

constexpr Tick checkInterval = 2 * ticksPerUs;

void
expectCleanBanksAfter(SystemConfig cfg, std::uint64_t txns_per_cpu,
                      const std::string &what)
{
    cfg.drainStop = true;
    OltpWorkload wl(OltpParams{}, 1);
    PiranhaSystem sys(cfg);
    auto check_all = [&](bool drained) {
        std::string err;
        for (unsigned n = 0; n < cfg.nodes && err.empty(); ++n)
            for (unsigned b = 0; b < 8 && err.empty(); ++b)
                err = sys.chip(n).l2(b).checkInvariants(drained);
        return err;
    };

    // Mid-run checks: each one re-arms itself while other events are
    // pending, so the queue still drains.
    EventQueue &eq = sys.eventQueue();
    unsigned checks = 0;
    std::string first_err;
    std::function<void()> mid_run = [&] {
        ++checks;
        if (first_err.empty())
            first_err = check_all(false);
        if (eq.pending() > 0)
            eq.scheduleIn(checkInterval, mid_run);
    };
    eq.schedule(checkInterval, mid_run);

    RunResult r = sys.run(wl, txns_per_cpu);
    ASSERT_FALSE(r.aborted) << what;
    EXPECT_GT(checks, 10u) << what;
    EXPECT_EQ(first_err, "") << what << " (mid-run)";

    EXPECT_EQ(check_all(true), "") << what;
    std::size_t peak_pool = 0;
    for (unsigned n = 0; n < cfg.nodes; ++n) {
        for (unsigned b = 0; b < 8; ++b) {
            L2Bank &bank = sys.chip(n).l2(b);
            EXPECT_EQ(bank.pendingInUse(), 0u)
                << what << ": " << bank.name();
            peak_pool = std::max(peak_pool, bank.pendingPoolSize());
        }
    }
    // The run did put transactions through the pools.
    EXPECT_GT(peak_pool, 0u) << what;
}

TEST(L2Invariants, HoldThroughP8Oltp)
{
    expectCleanBanksAfter(configP8(), 100, "P8/OLTP");
}

TEST(L2Invariants, HoldThroughEightChipP4Oltp)
{
    expectCleanBanksAfter(configPn(4, 8), 24, "8 x P4/OLTP");
}

// A requester that becomes a line's owner leaves an OwnerChange
// naming it, whichever way the bank served it: here a fill from local
// memory, a fill from a remote home and an exclusive grant.
TEST(L2OwnerRecord, EveryNewOwnerIsTraced)
{
    CoherenceTracer tracer;
    ChipParams params;
    params.tracer = &tracer;
    TestSystem sys(2, 2, params);
    auto traced_owner = [&](unsigned node, unsigned cpu, Addr a) {
        for (const TraceEvent &e : tracer.events())
            if (e.kind == TraceKind::OwnerChange &&
                e.node == static_cast<int>(node) &&
                e.aux == dl1Port(cpu) && e.addr == a)
                return true;
        return false;
    };

    Addr local_read = homedAt(sys, 0, 0);
    sys.load(0, 0, local_read);
    EXPECT_TRUE(traced_owner(0, 0, local_read)) << "local memory fill";

    Addr remote_read = homedAt(sys, 0, 1);
    sys.load(1, 1, remote_read);
    EXPECT_TRUE(traced_owner(1, 1, remote_read)) << "remote fill";

    Addr local_write = homedAt(sys, 0, 2);
    sys.store(0, 1, local_write, 7);
    sys.settle();
    EXPECT_TRUE(traced_owner(0, 1, local_write)) << "exclusive grant";
}

} // namespace
} // namespace piranha
