/**
 * @file
 * L2 bank bookkeeping over whole OLTP runs: every bank's
 * duplicate-tag records agree with its tag array and pending entries
 * are held exactly by lines with a transaction or blocked requests,
 * checked every few microseconds of simulated time; once the run has
 * drained, no idle record is left behind and every bank's pending
 * pool is back to empty.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "core/piranha.h"

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

} // namespace
} // namespace piranha
