/**
 * @file
 * Fast-vs-slow datapath bit-identity: the zero-event L1-hit fast path
 * (Core::issue / L1Cache::accessFast) must produce exactly the
 * simulation the slow path produces — same execution time, same stat
 * tree to the last bit, same coherence trace — across workloads,
 * configurations, seeds and L1 parity faults. The only permitted
 * difference is the kernel event count, which must drop by exactly
 * the number of inline (zero-event) hits.
 */

#include <gtest/gtest.h>

#include "check/trace.h"
#include "core/piranha.h"
#include "fault/campaign.h"
#include "harness/sweep.h"
#include "stats/json_writer.h"

namespace piranha {
namespace {

struct ModeResult
{
    RunResult run;
    std::string statDump;
    std::vector<TraceEvent> trace;
};

template <typename MakeWl>
ModeResult
runMode(bool fast, SystemConfig cfg, MakeWl make_wl,
        std::uint64_t work_per_cpu)
{
    cfg.core.fastPath = fast;
    CoherenceTracer tracer;
    cfg.chip.tracer = &tracer;
    auto wl = make_wl();
    PiranhaSystem sys(cfg);
    ModeResult m;
    m.run = sys.run(*wl, work_per_cpu);
    m.statDump = statGroupToJson(sys.stats()).dump(0);
    m.trace = tracer.events();
    return m;
}

template <typename MakeWl>
void
expectIdentical(SystemConfig cfg, MakeWl make_wl,
                std::uint64_t work_per_cpu, const std::string &what)
{
    ModeResult slow = runMode(false, cfg, make_wl, work_per_cpu);
    ModeResult fast = runMode(true, cfg, make_wl, work_per_cpu);

    // The slow mode must not have taken the fast path, and the fast
    // mode must actually have exercised it.
    EXPECT_EQ(slow.run.fastInlineHits + slow.run.fastEventedHits, 0u)
        << what;
    EXPECT_GT(fast.run.fastInlineHits + fast.run.fastEventedHits, 0u)
        << what;

    // Every comparable stat bit-identical.
    EXPECT_EQ(flattenRunResultComparable(slow.run),
              flattenRunResultComparable(fast.run))
        << what;
    EXPECT_EQ(slow.statDump, fast.statDump) << what;

    // Event accounting: a slow-path hit costs one respond event, an
    // evented fast hit replaces it 1:1, an inline fast hit costs
    // zero. The totals must balance exactly.
    EXPECT_EQ(slow.run.eventsExecuted - fast.run.eventsExecuted,
              fast.run.fastInlineHits)
        << what;
    EXPECT_EQ(slow.run.l1RespondEvents - fast.run.l1RespondEvents,
              fast.run.fastInlineHits + fast.run.fastEventedHits)
        << what;

    // Same coherence trace, event for event (ticks, values, states).
    ASSERT_EQ(slow.trace.size(), fast.trace.size()) << what;
    for (std::size_t i = 0; i < slow.trace.size(); ++i)
        EXPECT_TRUE(slow.trace[i] == fast.trace[i])
            << what << ": trace diverges at event " << i;
}

TEST(FastPathIdentity, OltpP8AcrossSeeds)
{
    for (std::uint64_t seed : {1ull, 2ull, 7ull}) {
        expectIdentical(
            configP8(),
            [seed] {
                return std::make_unique<OltpWorkload>(OltpParams{},
                                                      seed);
            },
            30, strFormat("P8/OLTP seed %llu",
                          (unsigned long long)seed));
    }
}

TEST(FastPathIdentity, DssP8)
{
    expectIdentical(
        configP8(),
        [] { return std::make_unique<DssWorkload>(DssParams{}, 3); },
        2, "P8/DSS");
}

TEST(FastPathIdentity, OltpMultiNode)
{
    expectIdentical(
        configPn(4, 2),
        [] {
            return std::make_unique<OltpWorkload>(OltpParams{}, 5);
        },
        20, "Pn(4,2)/OLTP");
}

TEST(FastPathIdentity, OltpSingleCpuInOrder)
{
    expectIdentical(
        configP1(),
        [] {
            return std::make_unique<OltpWorkload>(OltpParams{}, 1);
        },
        40, "P1/OLTP");
}

TEST(FastPathIdentity, OltpOooBaseline)
{
    // The OOO baseline exercises nonzero overlap credit and a wider
    // issue width on the same datapath.
    expectIdentical(
        configOOO(1),
        [] {
            return std::make_unique<OltpWorkload>(OltpParams{}, 2);
        },
        30, "OOO/OLTP");
}

/** @p r's fault counters and fired-fault records, serialized as a
 *  campaign report serializes them. */
std::string
faultRecord(const RunResult &r)
{
    InjectionRecord rec;
    rec.counters = r.faults;
    rec.faults = r.firedFaults;
    return injectionRecordToJson(rec, false).dump(0);
}

TEST(FastPathIdentity, L1ParityFaultPlans)
{
    // Both paths refuse a parity-bad line in the one hit routine, so
    // each must reach the same refetch, overwrite mask or machine
    // check at the same tick. Runs that end early are compared as
    // they stand: configPn(4, 2) at plan seed 4 drains its event
    // queue with a core unfinished in both modes, and the case
    // asserts identity, not completion.
    std::uint64_t refetches = 0, machine_checks = 0;
    for (const SystemConfig &base : {configP8(), configPn(4, 2)}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            SystemConfig cfg = base;
            cfg.faults.seed = seed;
            cfg.faults.count = 4;
            cfg.faults.kinds = {FaultKind::L1TagFlip,
                                FaultKind::L1DataFlip};
            cfg.faults.windowStart = 2 * ticksPerUs;
            cfg.faults.windowEnd = 20 * ticksPerUs;
            auto make = [] { return std::make_unique<OltpWorkload>(); };
            ModeResult slow = runMode(false, cfg, make, 40);
            ModeResult fast = runMode(true, cfg, make, 40);
            std::string what =
                strFormat("%s/OLTP plan seed %llu", cfg.name.c_str(),
                          (unsigned long long)seed);
            EXPECT_EQ(slow.statDump, fast.statDump) << what;
            EXPECT_EQ(slow.run.execTime, fast.run.execTime) << what;
            EXPECT_EQ(faultRecord(slow.run), faultRecord(fast.run))
                << what;
            EXPECT_TRUE(slow.trace == fast.trace) << what;
            refetches += slow.run.faults.l1ParityRefetch;
            machine_checks += slow.run.machineCheck;
        }
    }
    // The plans must reach both parity outcomes the hit routine hands
    // to the miss path.
    EXPECT_GT(refetches, 0u);
    EXPECT_GT(machine_checks, 0u);
}

TEST(FastPathIdentity, CoreParamKnobDisablesFastPath)
{
    // CoreParams::fastPath=false must force the slow path.
    SystemConfig cfg = configP1();
    cfg.core.fastPath = false;
    OltpWorkload wl;
    PiranhaSystem sys(cfg);
    RunResult r = sys.run(wl, 10);
    EXPECT_EQ(r.fastInlineHits + r.fastEventedHits, 0u);
    EXPECT_GT(r.l1RespondEvents, 0u);
}

TEST(FastPathIdentity, InlineHitsEngageSomewhere)
{
    // On a single-CPU system long hit streaks leave the event queue
    // quiet, so the zero-event tier must actually engage.
    OltpWorkload wl;
    PiranhaSystem sys(configP1());
    RunResult r = sys.run(wl, 20);
    EXPECT_GT(r.fastInlineHits, 0u);
}

} // namespace
} // namespace piranha
