/**
 * @file
 * Serial-vs-parallel engine bit-identity (DESIGN.md §13): the same
 * seed and configuration run under the serial engine (to quiescence)
 * and under the parallel engine at any shard count must produce the
 * same stat tree to the last bit, the same canonical coherence trace,
 * and the same engine-invariant event count — plus mutation tests
 * that deliberately break the engine's safety argument and prove this
 * gate notices (the PR 2 fault-seeding philosophy applied to the
 * engine itself).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "check/trace.h"
#include "core/piranha.h"
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

/**
 * Run @p cfg under @p engine and return comparable results. Both
 * engines get per-chip tracers and drainStop, and the merged trace is
 * put in canonical order: per-chip streams concatenated in node order,
 * then stably sorted by tick — so equal-tick events order by (tick,
 * node, within-node order), which is engine-independent because
 * cross-node causality always spans nonzero latency.
 */
template <typename MakeWl>
ModeResult
runWith(SystemConfig cfg, EngineKind engine, unsigned shards,
        MakeWl make_wl, std::uint64_t work_per_cpu,
        ParallelHooks *hooks = nullptr)
{
    std::vector<std::unique_ptr<CoherenceTracer>> tracers;
    for (unsigned n = 0; n < cfg.nodes; ++n) {
        tracers.push_back(std::make_unique<CoherenceTracer>());
        cfg.chipTracers.push_back(tracers.back().get());
    }
    cfg.engine = engine;
    cfg.shards = shards;
    cfg.drainStop = true;
    cfg.parallelHooks = hooks;
    auto wl = make_wl();
    PiranhaSystem sys(cfg);
    ModeResult m;
    m.run = sys.run(*wl, work_per_cpu);
    m.statDump = statGroupToJson(sys.stats()).dump(0);
    for (unsigned n = 0; n < tracers.size(); ++n)
        for (const TraceEvent &e : tracers[n]->events())
            m.trace.push_back(e);
    std::stable_sort(m.trace.begin(), m.trace.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.tick < b.tick;
                     });
    return m;
}

void
expectSameSimulation(const ModeResult &a, const ModeResult &b,
                     const std::string &what)
{
    EXPECT_EQ(flattenRunResultComparable(a.run),
              flattenRunResultComparable(b.run))
        << what;
    EXPECT_EQ(a.statDump, b.statDump) << what;
    EXPECT_EQ(a.run.eventsEquivalent, b.run.eventsEquivalent) << what;
    ASSERT_EQ(a.trace.size(), b.trace.size()) << what;
    for (std::size_t i = 0; i < a.trace.size(); ++i)
        EXPECT_TRUE(a.trace[i] == b.trace[i])
            << what << ": trace diverges at event " << i;
}

template <typename MakeWl>
void
expectEngineIdentical(const SystemConfig &cfg, MakeWl make_wl,
                      std::uint64_t work_per_cpu,
                      std::initializer_list<unsigned> shard_counts,
                      const std::string &what)
{
    ModeResult serial =
        runWith(cfg, EngineKind::Serial, 0, make_wl, work_per_cpu);
    EXPECT_FALSE(serial.run.aborted) << what;
    EXPECT_EQ(serial.run.shardsUsed, 0u) << what;
    for (unsigned shards : shard_counts) {
        ParallelHooks hooks; // all-default: behavior-neutral tripwires
        ModeResult par = runWith(cfg, EngineKind::Parallel, shards,
                                 make_wl, work_per_cpu, &hooks);
        std::string label =
            what + strFormat(" [shards=%u]", shards);
        EXPECT_FALSE(par.run.aborted) << label;
        EXPECT_EQ(par.run.shardsUsed,
                  shards ? std::min(shards, cfg.nodes) : cfg.nodes)
            << label;
        EXPECT_GT(par.run.parallelEpochs, 0u) << label;
        // Safety tripwires must never fire on an unmutated run.
        EXPECT_EQ(hooks.lateArrivals.load(), 0u) << label;
        EXPECT_EQ(hooks.reorderedFlushes.load(), 0u) << label;
        expectSameSimulation(serial, par, label);
    }
}

SystemConfig
multichipCfg()
{
    return configPn(2, 4); // 4 chips x 2 CPUs: room for 1/2/4 shards
}

TEST(ParallelIdentity, OltpMultichipAcrossSeedsAndShards)
{
    for (std::uint64_t seed : {1ull, 5ull, 9ull}) {
        expectEngineIdentical(
            multichipCfg(),
            [seed] {
                return std::make_unique<OltpWorkload>(OltpParams{},
                                                      seed);
            },
            12, {1, 2, 4, 8},
            strFormat("Pn(2,4)/OLTP seed %llu",
                      (unsigned long long)seed));
    }
}

TEST(ParallelIdentity, DssMultichip)
{
    expectEngineIdentical(
        multichipCfg(),
        [] { return std::make_unique<DssWorkload>(DssParams{}, 3); },
        1, {2, 4}, "Pn(2,4)/DSS");
}

TEST(ParallelIdentity, OltpTwoChipsOfFour)
{
    expectEngineIdentical(
        configPn(4, 2),
        [] {
            return std::make_unique<OltpWorkload>(OltpParams{}, 5);
        },
        12, {1, 2}, "Pn(4,2)/OLTP");
}

TEST(ParallelIdentity, SingleChipDegenerates)
{
    // One chip has no fabric at all: the parallel engine must still
    // reproduce the serial run exactly (window-capped epochs only
    // shift the fast path's inline/evented split, which
    // eventsEquivalent absorbs).
    expectEngineIdentical(
        configP8(),
        [] {
            return std::make_unique<OltpWorkload>(OltpParams{}, 2);
        },
        20, {1}, "P8/OLTP");
}

TEST(ParallelIdentity, StrictEventCountWithFastPathOff)
{
    // With the L1 fast path disabled there is no inline tier to
    // reshuffle, so even the raw executed-event count must match
    // exactly (same events, same flush events, different threads).
    SystemConfig cfg = multichipCfg();
    cfg.core.fastPath = false;
    auto mk = [] {
        return std::make_unique<OltpWorkload>(OltpParams{}, 7);
    };
    ModeResult serial = runWith(cfg, EngineKind::Serial, 0, mk, 10);
    for (unsigned shards : {2u, 4u}) {
        ModeResult par =
            runWith(cfg, EngineKind::Parallel, shards, mk, 10);
        EXPECT_EQ(serial.run.eventsExecuted, par.run.eventsExecuted)
            << "shards=" << shards;
        expectSameSimulation(serial, par,
                             strFormat("strict shards=%u", shards));
    }
}

TEST(ParallelIdentity, DeterministicAcrossShardCountsAndRepeats)
{
    // Parallel runs must be bit-identical to each other: across
    // different shard counts and across repeated runs at the same
    // shard count (no dependence on host scheduling).
    auto mk = [] {
        return std::make_unique<OltpWorkload>(OltpParams{}, 4);
    };
    SystemConfig cfg = multichipCfg();
    ModeResult first =
        runWith(cfg, EngineKind::Parallel, 2, mk, 12);
    ModeResult repeat =
        runWith(cfg, EngineKind::Parallel, 2, mk, 12);
    expectSameSimulation(first, repeat, "repeat at shards=2");
    for (unsigned shards : {1u, 3u, 4u}) {
        ModeResult other =
            runWith(cfg, EngineKind::Parallel, shards, mk, 12);
        expectSameSimulation(first, other,
                             strFormat("shards=2 vs shards=%u",
                                       shards));
    }
}

// ---------------------------------------------------------------------
// Mutation tests: break the safety argument on purpose and prove the
// gate is live. A gate that cannot fail is not a gate.

TEST(ParallelMutation, LookaheadShortByOneTickTripsTheGate)
{
    // epochStretch=1 claims one tick more lookahead than the
    // interconnect guarantees. The engine's invariant — every staged
    // arrival lies strictly in the destination's future — must now be
    // violated somewhere in the run, and the lateArrivals tripwire
    // (asserted zero by every identity test above) catches it.
    SystemConfig cfg = multichipCfg();
    auto mk = [] {
        return std::make_unique<OltpWorkload>(OltpParams{}, 5);
    };
    ParallelHooks hooks;
    hooks.epochStretch = 1;
    ModeResult bad =
        runWith(cfg, EngineKind::Parallel, 4, mk, 12, &hooks);
    EXPECT_GT(hooks.lateArrivals.load(), 0u);
}

TEST(ParallelMutation, GrosslyShortLookaheadDivergesObservably)
{
    // Stretching the epoch by a full lookahead makes cross-shard
    // arrivals miss their ticks outright (they clamp forward), so the
    // simulation itself — not just the tripwire — must diverge from
    // the serial reference, proving the stat/trace comparison would
    // catch a real lookahead bug.
    SystemConfig cfg = multichipCfg();
    auto mk = [] {
        return std::make_unique<OltpWorkload>(OltpParams{}, 5);
    };
    ModeResult serial = runWith(cfg, EngineKind::Serial, 0, mk, 12);
    ParallelHooks hooks;
    hooks.epochStretch = 11000; // ~= the real cross-chip lookahead
    ModeResult bad =
        runWith(cfg, EngineKind::Parallel, 4, mk, 12, &hooks);
    EXPECT_GT(hooks.lateArrivals.load(), 0u);
    EXPECT_NE(serial.statDump, bad.statDump);
}

TEST(ParallelMutation, ReorderedMailboxDrainDivergesObservably)
{
    // Reversing the canonical (sendTick, src, seq) flush order is the
    // "mailbox drained in the wrong order" bug. Same-tick arrivals at
    // a node then deliver in a different order, which the canonical
    // trace and stat comparison must expose.
    SystemConfig cfg = multichipCfg();
    auto mk = [] {
        return std::make_unique<OltpWorkload>(OltpParams{}, 5);
    };
    ModeResult serial = runWith(cfg, EngineKind::Serial, 0, mk, 12);
    ParallelHooks hooks;
    hooks.reverseDrain = true;
    ModeResult bad =
        runWith(cfg, EngineKind::Parallel, 4, mk, 12, &hooks);
    EXPECT_GT(hooks.reorderedFlushes.load(), 0u);
    bool trace_differs = bad.trace.size() != serial.trace.size();
    for (std::size_t i = 0;
         !trace_differs && i < serial.trace.size(); ++i)
        trace_differs = !(serial.trace[i] == bad.trace[i]);
    EXPECT_TRUE(serial.statDump != bad.statDump || trace_differs);
}

} // namespace
} // namespace piranha
