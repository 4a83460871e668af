/**
 * @file
 * Random coherence tester (in the spirit of gem5's Ruby random
 * tester). Every CPU in the system runs an agent issuing back-to-back
 * random loads and stores over a small set of contended lines, so
 * protocol races (forward/write-back crossings, early forwards,
 * upgrade/invalidate races, CMI ordering) occur constantly. Data
 * travels with the protocol messages, so any coherence bug shows up
 * as a concrete data-integrity violation:
 *
 *  - each (line, slot) is written by exactly one CPU with a
 *    monotonically increasing counter; concurrent writes to other
 *    slots of the same line must never be lost (no lost updates
 *    under ownership migration);
 *  - every read of a slot must return a value that CPU has already
 *    observed or a newer one (per-location coherence order);
 *  - a CPU's reads of its own slot must return exactly its last
 *    written value (read-own-writes through the store buffer);
 *  - after the system settles, every slot holds its writer's final
 *    value everywhere.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>

#include "check/checker.h"
#include "check/trace.h"
#include "sim/rng.h"
#include "test_system.h"

namespace piranha {
namespace {

struct TesterConfig
{
    unsigned nodes;
    unsigned cpusPerChip;
    unsigned lines;
    unsigned opsPerCpu;
    std::uint64_t seed;
    // Drive with the parallel engine. A full word, not a bool: gtest
    // prints the param's raw bytes into each ctest case name, and a
    // bool would leave seven bytes of uninitialized padding there.
    std::uint64_t parallel = 0;
};

class CoherenceRandomTest : public ::testing::TestWithParam<TesterConfig>
{
};

TEST_P(CoherenceRandomTest, NoDataCorruptionUnderRandomTraffic)
{
    const TesterConfig cfg = GetParam();
    // Per-chip tracers (a tracer is not thread-safe across chips);
    // the serial configurations use the same layout so both engines
    // feed the checker the identical canonical trace shape.
    std::vector<std::unique_ptr<CoherenceTracer>> tracers;
    TestSystemOptions opts;
    opts.parallel = cfg.parallel;
    for (unsigned n = 0; n < cfg.nodes; ++n) {
        tracers.push_back(std::make_unique<CoherenceTracer>(
            std::size_t(1) << 20));
        opts.chipTracers.push_back(tracers.back().get());
    }
    TestSystem sys(cfg.nodes, cfg.cpusPerChip, ChipParams{}, opts);

    const unsigned ncpus = cfg.nodes * cfg.cpusPerChip;
    const Addr base = 0x2000000;

    auto line_addr = [&](unsigned line) {
        return base + static_cast<Addr>(line) * lineBytes;
    };
    // Declare the initial (zero) contents of the contended lines so
    // the offline checker has a complete candidate-write base.
    for (unsigned line = 0; line < cfg.lines; ++line)
        for (unsigned slot = 0; slot < 8; ++slot) {
            Addr a = line_addr(line) + slot * 8;
            tracers[sys.amap.home(a)]->init(a, 8, 0);
        }
    // At most 8 writers (one per 8-byte slot), spread across nodes;
    // everyone else is a reader.
    const unsigned wstride = std::max(1u, ncpus / 8);
    auto is_writer = [&](unsigned cpu) {
        return cpu % wstride == 0 && cpu / wstride < 8;
    };
    auto slot_of = [&](unsigned cpu) { return cpu / wstride; };

    // lastWritten[line][cpu]: the value this CPU last stored into its
    // slot. lastSeen[line][slot][cpu]: newest value this CPU observed.
    std::vector<std::vector<std::uint64_t>> last_written(
        cfg.lines, std::vector<std::uint64_t>(ncpus, 0));
    std::vector<std::array<std::uint64_t, 8>> newest(
        cfg.lines, std::array<std::uint64_t, 8>{});
    std::vector<std::vector<std::array<std::uint64_t, 8>>> last_seen(
        cfg.lines,
        std::vector<std::array<std::uint64_t, 8>>(
            ncpus, std::array<std::uint64_t, 8>{}));

    // Updated from per-chip worker threads under the parallel engine.
    std::atomic<unsigned> active{0};
    std::atomic<std::uint64_t> errors{0};

    struct Agent
    {
        unsigned node, cpu, id;
        Pcg32 rng{0, 0};
        unsigned remaining = 0;
    };
    std::vector<Agent> agents(ncpus);

    // The agent loop: issue one random op, continue from its
    // completion callback.
    std::function<void(Agent &)> next = [&](Agent &ag) {
        if (ag.remaining == 0) {
            --active;
            return;
        }
        --ag.remaining;
        unsigned line = ag.rng.below(cfg.lines);
        bool is_store = is_writer(ag.id) && ag.rng.chance(0.45);
        L1Cache &dl1 = sys.chips[ag.node]->dl1(ag.cpu);

        if (is_store) {
            unsigned slot = slot_of(ag.id);
            std::uint64_t val = ++last_written[line][ag.id];
            // Encode writer + value so corruption is diagnosable.
            std::uint64_t enc =
                (static_cast<std::uint64_t>(ag.id) << 48) | val;
            newest[line][slot] =
                std::max(newest[line][slot], enc);
            MemReq req;
            req.op = MemOp::Store;
            req.addr = line_addr(line) + slot * 8;
            req.size = 8;
            req.value = enc;
            dl1.access(req, [&, line, slot, enc](const MemRsp &) {
                last_seen[line][ag.id][slot] =
                    std::max(last_seen[line][ag.id][slot], enc);
                next(ag);
            });
        } else {
            unsigned slot = ag.rng.below(8);
            MemReq req;
            req.op = MemOp::Load;
            req.addr = line_addr(line) + slot * 8;
            req.size = 8;
            dl1.access(req, [&, line, slot](const MemRsp &r) {
                std::uint64_t prev = last_seen[line][ag.id][slot];
                if (r.value < prev) {
                    ++errors;
                    ADD_FAILURE()
                        << "cpu " << ag.id << " line " << line
                        << " slot " << slot << ": went backwards: "
                        << std::hex << r.value << " after " << prev;
                }
                last_seen[line][ag.id][slot] =
                    std::max(prev, r.value);
                next(ag);
            });
        }
    };

    for (unsigned n = 0; n < cfg.nodes; ++n) {
        for (unsigned c = 0; c < cfg.cpusPerChip; ++c) {
            Agent &ag = agents[n * cfg.cpusPerChip + c];
            ag.node = n;
            ag.cpu = c;
            ag.id = n * cfg.cpusPerChip + c;
            ag.rng = Pcg32(cfg.seed, ag.id);
            ag.remaining = cfg.opsPerCpu;
            ++active;
        }
    }
    for (Agent &ag : agents)
        next(ag);

    // Run to completion with a generous cycle budget.
    bool drained = sys.drain(static_cast<Tick>(1) << 42);
    EXPECT_TRUE(drained) << "simulation did not converge (deadlock?)";
    EXPECT_EQ(active.load(), 0u);
    if (active.load() != 0) {
        std::ostringstream os;
        for (auto &chip : sys.chips) {
            for (unsigned b = 0; b < 8; ++b)
                chip->l2(b).debugDump(os);
            chip->homeEngine().debugDump(os);
            chip->remoteEngine().debugDump(os);
        }
        ADD_FAILURE() << "stuck state:\n" << os.str();
    }
    ASSERT_EQ(errors.load(), 0u);

    // The invariant-checked traffic phase is over and the system has
    // drained: every cached copy must now be current. Note the
    // settle boundary per tracer; the canonical merge below splices a
    // single global marker at this position.
    const Tick settled_tick = sys.now();
    std::vector<std::size_t> settled_count(cfg.nodes);
    for (unsigned n = 0; n < cfg.nodes; ++n)
        settled_count[n] = tracers[n]->events().size();

    // Final convergence: every slot readable everywhere with its
    // writer's newest value.
    for (unsigned line = 0; line < cfg.lines; ++line) {
        for (unsigned slot = 0; slot < 8; ++slot) {
            if (newest[line][slot] == 0)
                continue;
            std::uint64_t v =
                sys.load(0, 0, line_addr(line) + slot * 8);
            EXPECT_EQ(v, newest[line][slot])
                << "line " << line << " slot " << slot;
        }
    }

    // Second, independent oracle: replay the captured coherence trace
    // through the offline axiomatic checker. Canonical assembly:
    // pre-settle events of every chip merged in (tick, node, record
    // order), one global settled marker, then the readback events.
    std::uint64_t total_dropped = 0;
    for (const auto &t : tracers)
        total_dropped += t->dropped();
    ASSERT_EQ(total_dropped, 0u)
        << "trace ring too small for this configuration";
    std::vector<std::vector<TraceEvent>> prefix(cfg.nodes);
    std::vector<std::vector<TraceEvent>> suffix(cfg.nodes);
    for (unsigned n = 0; n < cfg.nodes; ++n) {
        std::vector<TraceEvent> ev = tracers[n]->events();
        auto cut =
            ev.begin() + static_cast<std::ptrdiff_t>(settled_count[n]);
        prefix[n].assign(ev.begin(), cut);
        suffix[n].assign(cut, ev.end());
    }
    std::vector<TraceEvent> trace = mergeShardTraces(prefix);
    TraceEvent marker;
    marker.tick = settled_tick;
    marker.kind = TraceKind::Marker;
    marker.value = markerSettled;
    trace.push_back(marker);
    std::vector<TraceEvent> tail = mergeShardTraces(suffix);
    trace.insert(trace.end(), tail.begin(), tail.end());
    CheckReport report = checkCoherence(trace);
    EXPECT_TRUE(report.ok()) << report.summary(trace);
}

/**
 * Expand each base configuration over several seeds (two for the
 * 32-CPU stress points to bound runtime). Different seeds explore
 * different interleavings of the same contention pattern.
 */
std::vector<TesterConfig>
sweepConfigs()
{
    const TesterConfig base[] = {
        {1, 2, 4, 400, 0},
        {1, 8, 8, 400, 0},
        {1, 8, 2, 600, 0},  // heavy same-line contention
        {2, 4, 8, 400, 0},
        {2, 8, 4, 500, 0},
        {3, 4, 6, 400, 0},
        {4, 2, 4, 400, 0},
        {4, 8, 3, 300, 0},  // max contention, 32 CPUs
        {4, 4, 16, 500, 0},
    };
    std::vector<TesterConfig> out;
    std::uint64_t seed = 0xA;
    for (const TesterConfig &b : base) {
        unsigned nseeds = b.nodes * b.cpusPerChip >= 32 ? 2 : 3;
        for (unsigned s = 0; s < nseeds; ++s) {
            TesterConfig c = b;
            c.seed = seed++;
            out.push_back(c);
            // The same traffic again under the parallel engine: the
            // protocol races it provokes must stay clean when chips
            // run on separate threads.
            c.parallel = true;
            out.push_back(c);
        }
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoherenceRandomTest, ::testing::ValuesIn(sweepConfigs()),
    [](const ::testing::TestParamInfo<TesterConfig> &info) {
        const auto &c = info.param;
        return strFormat("n%uc%ul%u_%llu%s", c.nodes, c.cpusPerChip,
                         c.lines,
                         static_cast<unsigned long long>(c.seed),
                         c.parallel ? "_parallel" : "");
    });

} // namespace
} // namespace piranha
