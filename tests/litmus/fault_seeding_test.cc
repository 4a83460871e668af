/**
 * @file
 * Mutation tests for the axiomatic checker: each seeded protocol
 * fault (src/mem/coherence_types.h) is activated by a targeted probe
 * and the checker must flag the resulting trace. Every fault corrupts
 * silently — the simulator itself never panics — so a checker that
 * misses one would let a real protocol bug of the same shape ship.
 *
 * Probes for deterministic faults run once; the write-back/forward
 * crossing needs the right interleaving, so its probe calibrates the
 * eviction tick and sweeps the racing read around it until the fault
 * both fires and is caught.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "check/checker.h"
#include "check/trace.h"
#include "core/piranha.h"
#include "test_system.h"

namespace piranha {
namespace {

struct ProbeOutcome
{
    std::uint64_t fires = 0;
    CheckReport report;
    std::vector<TraceEvent> trace;

    bool caught() const { return fires > 0 && !report.ok(); }
};

/** A TestSystem with a tracer and one seeded fault attached. */
struct Probe
{
    CoherenceTracer tracer{std::size_t(1) << 18};
    FaultState faults;
    TestSystem sys;

    Probe(ProtocolFault f, unsigned nodes, unsigned cpus)
        : sys(nodes, cpus, params(f))
    {
    }

    ChipParams
    params(ProtocolFault f)
    {
        faults.kind = f;
        ChipParams p;
        p.tracer = &tracer;
        p.faults = &faults;
        return p;
    }

    /** Declare a line's initial contents (all-zero except @p hot). */
    void
    declareLine(Addr line_base, Addr hot = 0, std::uint64_t hot_v = 0)
    {
        Addr base = lineAlign(line_base);
        for (unsigned off = 0; off < lineBytes; off += 8) {
            Addr a = base + off;
            std::uint64_t v = a == hot ? hot_v : 0;
            if (v)
                sys.chips[sys.amap.home(a)]->memory().poke64(a, v);
            tracer.init(a, 8, v);
        }
    }

    /** Settle, mark settled, read @p a back from every chip's cpu0
     *  (plus local cpus on single-node probes), then run the checker. */
    ProbeOutcome
    finish(Addr a)
    {
        sys.settle();
        tracer.mark(sys.eq.curTick(), markerSettled);
        for (unsigned n = 0; n < sys.chips.size(); ++n)
            for (unsigned c = 0; c < sys.chips[n]->cpus(); ++c)
                sys.load(n, c, a);
        ProbeOutcome out;
        out.fires = faults.fires;
        out.trace = tracer.events();
        out.report = checkCoherence(out.trace, tracer.dropped());
        return out;
    }
};

/** Stride walking distinct lines through one L1 set (and, scaled by
 *  bank count, one L2 set) — same trick as the protocol race tests. */
Addr
conflictStride()
{
    L1Params l1{};
    L2Params l2{};
    std::size_t l1_sets = l1.sizeBytes / (l1.assoc * lineBytes);
    std::size_t l2_sets = l2.bankBytes / (l2.assoc * lineBytes);
    return static_cast<Addr>(std::max(l1_sets, l2_sets * 8)) *
           lineBytes * 8;
}

/** Evict @p a from @p cpu's L1 by touching conflicting lines. */
void
walkL1Set(Probe &p, unsigned node, unsigned cpu, Addr a)
{
    L1Params l1{};
    std::size_t sets = l1.sizeBytes / (l1.assoc * lineBytes);
    for (unsigned i = 1; i <= l1.assoc + 1; ++i)
        p.sys.load(node, cpu, a + i * Addr(sets) * lineBytes);
}

// Sharers keep stale copies after a write because their invals were
// dropped: expect settled-stale reads plus an inval-lost audit.
ProbeOutcome
probeDropInval()
{
    Probe p(ProtocolFault::DropInval, 1, 4);
    Addr a = 0x2000000;
    p.declareLine(a, a, 0x11);
    for (unsigned c = 1; c < 4; ++c)
        EXPECT_EQ(p.sys.load(0, c, a), 0x11u);
    p.sys.settle();
    p.sys.store(0, 0, a, 0x22);
    return p.finish(a);
}

// The dup tags forget a reader; the next exclusive grant skips its
// invalidation: expect an occupancy violation at the fill.
ProbeOutcome
probeSkipDupTag()
{
    Probe p(ProtocolFault::SkipDupTagUpdate, 1, 2);
    Addr a = 0x2000000;
    p.declareLine(a);
    p.sys.store(0, 0, a, 0x33);
    p.sys.settle(); // drain the store buffer: line is dirty in L1
    walkL1Set(p, 0, 0, a); // victim-write the dirty line into L2
    p.sys.settle();
    EXPECT_EQ(p.sys.load(0, 1, a), 0x33u); // L2 hit, dup tag skipped
    p.sys.settle();
    p.sys.store(0, 0, a, 0x44); // grant bypasses the forgotten reader
    return p.finish(a);
}

// A dirty victim's data never reaches the L2: later reads refetch the
// stale memory copy — expect monotonic-read / settled-stale.
ProbeOutcome
probeDropVictimWb()
{
    Probe p(ProtocolFault::DropVictimWriteback, 1, 1);
    Addr a = 0x2000000;
    p.declareLine(a, a, 0x11);
    p.sys.store(0, 0, a, 0x55);
    p.sys.settle(); // drain the store buffer: line is dirty in L1
    walkL1Set(p, 0, 0, a);
    return p.finish(a);
}

// Owner keeps its copy when servicing an exclusive forward: two
// exclusive copies exist — expect occupancy at the requester's fill.
ProbeOutcome
probeFwdKeepOwner()
{
    Probe p(ProtocolFault::FwdKeepOwner, 1, 2);
    Addr a = 0x2000000;
    p.declareLine(a);
    p.sys.store(0, 0, a, 0x66);
    p.sys.settle();
    p.sys.store(0, 1, a, 0x77);
    return p.finish(a);
}

// A store-buffer entry is silently discarded when its drain misses:
// expect read-own-write on the final load and a store-lost audit.
ProbeOutcome
probeSbDrop()
{
    Probe p(ProtocolFault::SbDropOnMiss, 1, 1);
    Addr a = 0x2000000;
    p.declareLine(a);
    p.sys.store(0, 0, a, 0x88);
    return p.finish(a);
}

// The write-back buffer captures stale (zeroed) data; a forward that
// races the write-back window serves garbage — expect value-integrity
// at the remote reader. The forward must reach the ex-owner inside
// the write-back window, whose position depends on cache and NoC
// timing: calibrate the node-level eviction tick with a dry run, then
// sweep the racing read's issue tick around it.
ProbeOutcome
probeWbRaceStale()
{
    const std::uint64_t dirty = 0xCAFECAFECAFECAFEull;
    L2Params l2{};
    Addr stride = conflictStride();

    Tick evict = 0;
    {
        Probe p(ProtocolFault::WbRaceStaleData, 3, 1);
        Addr a = homedAt(p.sys, 0);
        p.declareLine(a, a, 0x1111111111111111ull);
        p.sys.store(1, 0, a, dirty);
        p.sys.settle();
        for (unsigned i = 1; i <= l2.assoc + 2; ++i)
            fire(p.sys, 1, 0, MemOp::Store, a + i * stride, i);
        p.sys.settle();
        for (const TraceEvent &e : p.tracer.events())
            if (e.kind == TraceKind::L2Evict && e.node == 1 &&
                lineNum(e.addr) == lineNum(a))
                evict = e.tick;
    }
    EXPECT_GT(evict, 0u) << "conflict walk never evicted the line";

    ProbeOutcome last;
    for (std::int64_t delta = -400'000; delta <= 200'000;
         delta += 15'000) {
        Probe p(ProtocolFault::WbRaceStaleData, 3, 1);
        Addr a = homedAt(p.sys, 0);
        p.declareLine(a, a, 0x1111111111111111ull);
        p.sys.store(1, 0, a, dirty);
        p.sys.settle();
        for (unsigned i = 1; i <= l2.assoc + 2; ++i)
            fire(p.sys, 1, 0, MemOp::Store, a + i * stride, i);
        std::int64_t at = std::int64_t(evict) + delta;
        std::int64_t now = std::int64_t(p.sys.eq.curTick());
        p.sys.eq.scheduleIn(at > now ? Tick(at - now) : 0, [&p, a] {
            fire(p.sys, 2, 0, MemOp::Load, a, 0);
        });
        ProbeOutcome out = p.finish(a);
        if (out.caught())
            return out;
        if (out.fires > last.fires || last.trace.empty())
            last = std::move(out);
    }
    return last;
}

// A cruise-missile invalidation is acknowledged and applied to the
// node-level state, but the stale L1 copies survive the epoch change:
// readers keep hitting old data after the writer's value is the only
// committed one — expect settled-stale at the surviving sharers.
ProbeOutcome
probeStaleCmi()
{
    // Two sharer nodes: a lone remote reader would get the
    // clean-exclusive optimization and be taken down by a forward,
    // not a cruise missile.
    Probe p(ProtocolFault::StaleCmiApply, 3, 2);
    Addr a = homedAt(p.sys, 0);
    p.declareLine(a, a, 0x11);
    EXPECT_EQ(p.sys.load(1, 0, a), 0x11u);
    EXPECT_EQ(p.sys.load(1, 1, a), 0x11u);
    EXPECT_EQ(p.sys.load(2, 0, a), 0x11u);
    p.sys.settle();
    p.sys.store(0, 0, a, 0x99); // CMIs reach nodes 1+2, L1s survive
    return p.finish(a);
}

ProbeOutcome
runProbe(ProtocolFault f)
{
    switch (f) {
      case ProtocolFault::DropInval:
        return probeDropInval();
      case ProtocolFault::SkipDupTagUpdate:
        return probeSkipDupTag();
      case ProtocolFault::DropVictimWriteback:
        return probeDropVictimWb();
      case ProtocolFault::WbRaceStaleData:
        return probeWbRaceStale();
      case ProtocolFault::StaleCmiApply:
        return probeStaleCmi();
      case ProtocolFault::FwdKeepOwner:
        return probeFwdKeepOwner();
      case ProtocolFault::SbDropOnMiss:
        return probeSbDrop();
      case ProtocolFault::None:
        break;
    }
    return {};
}

// The probes mean something only if a run without a seeded fault
// checks clean. Fault-free OLTP on one chip and on two once tripped
// the occupancy axiom: an L1's victim is surrendered where the L2
// takes it, before the L1 records its own VictimDrop.
TEST(FaultSeeding, FaultFreeOltpChecksClean)
{
    for (SystemConfig cfg : {configP8(), configPn(4, 2)}) {
        CoherenceTracer tracer;
        cfg.chip.tracer = &tracer;
        PiranhaSystem sys(cfg);
        OltpWorkload wl;
        RunResult r = sys.run(wl, 128);
        ASSERT_FALSE(r.aborted) << cfg.name;
        std::vector<TraceEvent> trace = tracer.events();
        CheckReport rep = checkCoherence(trace, tracer.dropped());
        EXPECT_TRUE(rep.ok()) << cfg.name << ":\n" << rep.summary(trace);
    }
}

class FaultSeedingTest
    : public ::testing::TestWithParam<ProtocolFault>
{
};

TEST_P(FaultSeedingTest, CheckerFlagsSeededFault)
{
    ProtocolFault f = GetParam();
    ProbeOutcome out = runProbe(f);
    EXPECT_GE(out.fires, 1u)
        << protocolFaultName(f) << ": the seeded fault never fired";
    EXPECT_FALSE(out.report.ok())
        << protocolFaultName(f)
        << ": checker accepted a corrupted run ("
        << out.trace.size() << " events)";
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, FaultSeedingTest,
    ::testing::Values(ProtocolFault::DropInval,
                      ProtocolFault::SkipDupTagUpdate,
                      ProtocolFault::DropVictimWriteback,
                      ProtocolFault::WbRaceStaleData,
                      ProtocolFault::StaleCmiApply,
                      ProtocolFault::FwdKeepOwner,
                      ProtocolFault::SbDropOnMiss),
    [](const ::testing::TestParamInfo<ProtocolFault> &info) {
        std::string name = protocolFaultName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace piranha
