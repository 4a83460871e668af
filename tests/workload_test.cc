/**
 * @file
 * Workload generator tests: determinism, work targets, operation
 * mixes, lock mutual exclusion, private-page placement, and the
 * OOO-model parameters of OLTP vs DSS (paper §3.1).
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/event_queue.h"
#include "workload/dss.h"
#include "workload/oltp.h"

namespace piranha {
namespace {

std::vector<StreamOp>
drain(InstrStream &s, std::size_t max_ops = 100000)
{
    std::vector<StreamOp> ops;
    while (ops.size() < max_ops) {
        StreamOp op = s.next();
        if (op.kind == StreamOp::Kind::Done)
            break;
        ops.push_back(op);
    }
    return ops;
}

AddressMap
amapFor(unsigned nodes)
{
    AddressMap m;
    m.numNodes = nodes;
    return m;
}

TEST(OltpStream, CompletesTargetTransactions)
{
    OltpWorkload wl;
    EventQueue eq;
    auto s = wl.makeStream(eq, 0, 1, 25, 0, amapFor(1));
    // Advance simulated time on Idle ops so commit I/O waits (which
    // block all 8 server processes between transactions) complete.
    std::size_t ops = 0;
    for (std::size_t i = 0; i < 200000; ++i) {
        StreamOp op = s->next();
        if (op.kind == StreamOp::Kind::Done)
            break;
        ++ops;
        if (op.kind == StreamOp::Kind::Idle) {
            eq.schedule(eq.curTick() + op.count * 2000, [] {});
            eq.run();
        }
    }
    EXPECT_EQ(s->workDone(), 25u);
    EXPECT_GT(ops, 1000u);
}

TEST(OltpStream, DeterministicForSameSeed)
{
    OltpWorkload a(OltpParams{}, 7), b(OltpParams{}, 7);
    EventQueue eq;
    auto sa = a.makeStream(eq, 2, 4, 5, 0, amapFor(1));
    auto sb = b.makeStream(eq, 2, 4, 5, 0, amapFor(1));
    for (int i = 0; i < 3000; ++i) {
        StreamOp oa = sa->next(), ob = sb->next();
        ASSERT_EQ(static_cast<int>(oa.kind),
                  static_cast<int>(ob.kind));
        ASSERT_EQ(oa.addr, ob.addr);
        ASSERT_EQ(oa.pc, ob.pc);
        if (oa.kind == StreamOp::Kind::Done)
            break;
    }
}

TEST(OltpStream, MixContainsLoadsStoresCompute)
{
    OltpWorkload wl;
    EventQueue eq;
    auto s = wl.makeStream(eq, 0, 1, 20, 0, amapFor(1));
    auto ops = drain(*s);
    unsigned loads = 0, stores = 0, compute = 0;
    for (const auto &op : ops) {
        switch (op.kind) {
          case StreamOp::Kind::Load: ++loads; break;
          case StreamOp::Kind::Store: ++stores; break;
          case StreamOp::Kind::Compute: ++compute; break;
          default: break;
        }
    }
    EXPECT_GT(loads, 200u);
    EXPECT_GT(stores, 100u);
    EXPECT_GT(compute, 500u);
}

TEST(OltpStream, PrivatePagesHomedAtOwnNode)
{
    // First-touch placement: each CPU's private references must fall
    // on pages homed at its own node.
    AddressMap amap = amapFor(3);
    OltpWorkload wl;
    EventQueue eq;
    for (unsigned node = 0; node < 3; ++node) {
        auto s = wl.makeStream(eq, node * 4, 12, 6, node, amap);
        auto ops = drain(*s);
        for (const auto &op : ops) {
            if (op.kind != StreamOp::Kind::Load &&
                op.kind != StreamOp::Kind::Store)
                continue;
            if (op.addr >= 0x400000000ULL) {
                EXPECT_EQ(amap.home(op.addr), node)
                    << std::hex << op.addr;
            }
        }
    }
}

TEST(OltpStream, StreamsGenerateIndependently)
{
    // The parallel engine refills streams on different threads in an
    // order that varies with the shard count, so a stream's op
    // sequence must not depend on when its siblings generate:
    // interleaving two streams op-for-op must reproduce exactly the
    // sequence each stream emits when drained alone.
    OltpWorkload wlA, wlB;
    EventQueue eqA, eqB;
    auto a0 = wlA.makeStream(eqA, 0, 2, 50, 0, amapFor(1));
    auto a1 = wlA.makeStream(eqA, 1, 2, 50, 0, amapFor(1));
    auto b0 = wlB.makeStream(eqB, 0, 2, 50, 0, amapFor(1));
    auto b1 = wlB.makeStream(eqB, 1, 2, 50, 0, amapFor(1));
    for (int i = 0; i < 20000; ++i) {
        StreamOp i0 = a0->next();
        StreamOp i1 = a1->next();
        StreamOp s1 = b1->next(); // sibling order reversed
        StreamOp s0 = b0->next();
        EXPECT_EQ(i0.kind, s0.kind);
        EXPECT_EQ(i0.addr, s0.addr);
        EXPECT_EQ(i0.value, s0.value);
        EXPECT_EQ(i1.kind, s1.kind);
        EXPECT_EQ(i1.addr, s1.addr);
        EXPECT_EQ(i1.value, s1.value);
    }
}

TEST(DssStream, SequentialPartitionedScan)
{
    DssWorkload wl;
    EventQueue eq;
    auto s0 = wl.makeStream(eq, 0, 4, 2, 0, amapFor(1));
    auto s1 = wl.makeStream(eq, 1, 4, 2, 0, amapFor(1));
    auto ops0 = drain(*s0);
    auto ops1 = drain(*s1);
    // Partitions are disjoint.
    std::set<Addr> a0, a1;
    for (const auto &op : ops0)
        if (op.kind == StreamOp::Kind::Load)
            a0.insert(lineAlign(op.addr));
    for (const auto &op : ops1)
        if (op.kind == StreamOp::Kind::Load)
            a1.insert(lineAlign(op.addr));
    for (Addr a : a0)
        EXPECT_EQ(a1.count(a), 0u);
    // Accesses are ascending (sequential scan).
    Addr prev = 0;
    for (const auto &op : ops0) {
        if (op.kind != StreamOp::Kind::Load)
            continue;
        EXPECT_GE(op.addr + 1, prev);
        prev = op.addr;
    }
}

TEST(Workloads, IlpParametersMatchPaperCharacterization)
{
    // OLTP: little ILP, limited overlap; DSS: much more of both.
    OltpWorkload oltp;
    DssWorkload dss;
    EXPECT_LT(oltp.ilp().issueIlp, dss.ilp().issueIlp);
    EXPECT_LT(oltp.ilp().memOverlap, dss.ilp().memOverlap);
    EXPECT_LT(oltp.ilp().issueIlp, 2.0);
    EXPECT_GT(dss.ilp().memOverlap, 0.5);
}

TEST(Workloads, TpccVariantIsHeavier)
{
    OltpParams tpcc = OltpWorkload::tpccParams();
    OltpParams tpcb;
    EXPECT_GT(tpcc.accessesPerTxn, tpcb.accessesPerTxn);
}

} // namespace
} // namespace piranha
