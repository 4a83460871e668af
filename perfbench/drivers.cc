#include "drivers.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <new>
#include <unordered_map>
#include <unordered_set>

#include "cache/tag_array.h"
#include "core/piranha.h"
#include "mem/directory.h"
#include "mem/ecc.h"
#include "noc/link_codec.h"
#include "sim/event_queue.h"
#include "sim/line_table.h"
#include "sim/ring_buffer.h"
#include "sim/rng.h"

namespace perfbench {
/** Heap allocations made by the calling thread (operator new below). */
thread_local std::uint64_t t_allocs = 0;
} // namespace perfbench

// Counting global allocator, so the event-queue driver can report heap
// allocations per event. Per-thread counts keep sweep threads from
// contending on one counter. GCC cannot see that this operator new is
// malloc-based and flags the matching free() once inlined.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *
operator new(std::size_t n)
{
    ++perfbench::t_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++perfbench::t_allocs;
    return std::malloc(n ? n : 1);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept { std::free(p); }

namespace perfbench {

using namespace piranha;

namespace {

/** Repetitions of each driver loop; the median is reported. */
constexpr int kReps = 3;

void
fail(DriverResult &d, const std::string &why)
{
    if (d.ok) {
        d.ok = false;
        d.failure = d.name + ": " + why;
    }
}

/** Runs @p rep kReps times; each returns seconds for @p ops ops. */
double
medianNsPerOp(std::uint64_t ops, const std::function<double()> &rep)
{
    std::vector<double> ns;
    for (int i = 0; i < kReps; ++i)
        ns.push_back(rep() * 1e9 / static_cast<double>(ops));
    return summarize(ns).median;
}

// ---------------------------------------------------------------- sim

constexpr Tick kCycle = 2000; // one 500 MHz cycle
constexpr unsigned kComponents = 64;
constexpr std::uint64_t kTicksPerComponent = 16384;

/**
 * The schedule/execute pattern that dominates simulation: each
 * component reschedules its own tick every cycle and sends one pooled
 * payload event per tick. A fixed tick count per component gives a
 * closed-form event count and checksum.
 */
struct ChurnComp
{
    struct Msg final : public Event
    {
        ChurnComp *comp = nullptr;
        std::uint64_t value = 0;

        void
        process() override
        {
            ChurnComp *c = comp;
            std::uint64_t v = value;
            c->pool.release(this);
            c->sum += v;
        }
        const char *eventName() const override { return "perfbench.msg"; }
    };

    EventQueue *eq = nullptr;
    std::uint64_t left = kTicksPerComponent;
    std::uint64_t value = 0;
    std::uint64_t sum = 0;
    EventPool<Msg> pool;

    void
    tick()
    {
        if (left == 0)
            return;
        --left;
        Msg *m = pool.acquire();
        m->comp = this;
        m->value = value;
        eq->scheduleIn(*m, kCycle);
        eq->scheduleIn(tickEvent, kCycle);
    }

    MemberEvent<ChurnComp, &ChurnComp::tick> tickEvent{this,
                                                      "perfbench.tick"};
};

void
eventQueueDriver(DriverResult &d)
{
    const std::uint64_t per_comp = 2 * kTicksPerComponent + 1;
    const std::uint64_t events = kComponents * per_comp;
    std::vector<double> allocs;
    double ns = medianNsPerOp(events, [&] {
        EventQueue eq;
        std::vector<std::unique_ptr<ChurnComp>> comps;
        std::uint64_t expect = 0;
        for (unsigned i = 0; i < kComponents; ++i) {
            comps.push_back(std::make_unique<ChurnComp>());
            comps.back()->eq = &eq;
            comps.back()->value = i + 1;
            expect += kTicksPerComponent * (i + 1);
            eq.scheduleIn(comps.back()->tickEvent, kCycle);
        }
        std::uint64_t a0 = t_allocs;
        Clock::time_point t0 = Clock::now();
        eq.run();
        double s = secondsSince(t0);
        allocs.push_back(static_cast<double>(t_allocs - a0) /
                         static_cast<double>(events));
        std::uint64_t sum = 0;
        for (const auto &c : comps)
            sum += c->sum;
        if (eq.executed() != events || sum != expect)
            fail(d, "event count or checksum mismatch");
        return s;
    });
    d.metrics = {{"sim.event_queue.ns_per_event", ns, "ns"},
                 {"sim.event_queue.allocs_per_event",
                  summarize(allocs).median, "1/event"}};
}

constexpr std::uint64_t kTableOps = 2'000'000;

/** The per-line protocol-state pattern: insert, re-find, erase over a
 *  sliding window of near-sequential line numbers. */
template <typename Table>
std::uint64_t
tableChurn(Table &t)
{
    constexpr std::uint64_t kLive = 512; // typical in-flight lines
    std::uint64_t checksum = 0;
    for (std::uint64_t i = 0; i < kTableOps; ++i) {
        Addr line = (i * 7) & 0xFFFF;
        t[line] += 1;
        if (auto *v = t.find(line))
            checksum += *v;
        if (i >= kLive)
            t.erase(((i - kLive) * 7) & 0xFFFF);
    }
    return checksum;
}

/** std::unordered_map with LineTable's find/erase surface. */
struct MapTable
{
    std::unordered_map<Addr, std::uint64_t> m;
    std::uint64_t &operator[](Addr k) { return m[k]; }
    std::uint64_t *
    find(Addr k)
    {
        auto it = m.find(k);
        return it == m.end() ? nullptr : &it->second;
    }
    void erase(Addr k) { m.erase(k); }
};

void
lineTableDriver(DriverResult &d)
{
    MapTable ref;
    const std::uint64_t expect = tableChurn(ref);
    double ns = medianNsPerOp(kTableOps, [&] {
        LineTable<std::uint64_t> t;
        Clock::time_point t0 = Clock::now();
        std::uint64_t sum = tableChurn(t);
        double s = secondsSince(t0);
        if (sum != expect)
            fail(d, "checksum differs from std::unordered_map");
        return s;
    });
    d.metrics = {{"sim.line_table.ns_per_op", ns, "ns"}};
}

constexpr std::uint64_t kQueueOps = 8'000'000;

void
ringBufferDriver(DriverResult &d)
{
    // The store-buffer / CPU-queue pattern: short FIFO, push then pop.
    double ns = medianNsPerOp(kQueueOps, [&] {
        RingBuffer<std::uint64_t> q;
        std::uint64_t sum = 0;
        Clock::time_point t0 = Clock::now();
        for (std::uint64_t i = 0; i < kQueueOps; ++i) {
            q.push_back(i);
            if (q.size() >= 4) {
                sum += q.front();
                q.pop_front();
            }
        }
        while (!q.empty()) {
            sum += q.front();
            q.pop_front();
        }
        double s = secondsSince(t0);
        if (sum != kQueueOps * (kQueueOps - 1) / 2)
            fail(d, "FIFO checksum mismatch");
        return s;
    });
    d.metrics = {{"sim.ring_buffer.ns_per_op", ns, "ns"}};
}

// -------------------------------------------------------------- cache

constexpr std::uint64_t kLookups = 2'000'000;

void
tagArrayDriver(DriverResult &d)
{
    struct Line : TagLine
    {};
    // The L2 bank geometry: 1 MB, 8-way, bank bits stripped.
    TagArray<Line> tags(1024 * 1024, 8, ReplPolicy::RoundRobin, 3);
    std::unordered_set<Addr> present;
    Pcg32 rng(4);
    for (int i = 0; i < 8192; ++i) {
        Addr a = static_cast<Addr>(rng.below(16384)) * lineBytes;
        if (tags.find(a))
            continue;
        Line &slot = tags.victimFor(a);
        if (slot.valid)
            present.erase(slot.addr);
        tags.install(slot, a);
        present.insert(a);
    }
    std::vector<Addr> probes(1 << 16);
    std::uint64_t expect_per_pass = 0;
    for (Addr &a : probes) {
        a = static_cast<Addr>(rng.below(16384)) * lineBytes;
        expect_per_pass += present.count(a);
    }
    const std::uint64_t passes = kLookups / probes.size();
    double ns = medianNsPerOp(passes * probes.size(), [&] {
        std::uint64_t hits = 0;
        Clock::time_point t0 = Clock::now();
        for (std::uint64_t p = 0; p < passes; ++p)
            for (Addr a : probes)
                hits += tags.find(a) != nullptr;
        double s = secondsSince(t0);
        if (hits != passes * expect_per_pass)
            fail(d, "hit count differs from the reference set");
        return s;
    });
    d.metrics = {{"cache.tag_array.ns_per_lookup", ns, "ns"}};
}

/** One L1Cache::access per fill source, each on a quiet system; the
 *  simulated latencies are printed beside Table 1 (ledger.json). */
struct L1Case
{
    const char *name;
    FillSource expect;
};

constexpr L1Case kL1Cases[] = {
    {"l1", FillSource::L1},
    {"l2_hit", FillSource::L2Hit},
    {"l2_fwd", FillSource::L2Fwd},
    {"mem_local", FillSource::MemLocal},
    {"mem_remote", FillSource::MemRemote},
    {"remote_dirty", FillSource::RemoteDirty},
};

constexpr Addr kL1Addr = 0x5000000;

/** Drives dl1 ports of a fresh PiranhaSystem directly (no cores). */
struct QuietSystem
{
    explicit QuietSystem(const SystemConfig &cfg) : sys(cfg)
    {
        amap.numNodes = cfg.nodes;
    }

    /** Issue one access; step until it completes. */
    bool
    access(unsigned node, unsigned cpu, MemOp op, Addr a, MemRsp &out)
    {
        bool done = false;
        MemReq req;
        req.op = op;
        req.addr = a;
        req.value = 7;
        sys.chip(node).dl1(cpu).access(req, [&](const MemRsp &r) {
            out = r;
            done = true;
        });
        for (int i = 0; !done && i < 1'000'000; ++i)
            if (!sys.eventQueue().step())
                break;
        return done;
    }

    void settle() { sys.eventQueue().run(); }

    /** A line homed at @p node. */
    Addr
    homedAt(unsigned node) const
    {
        Addr a = kL1Addr;
        while (amap.home(a) != node)
            a += Addr(1) << amap.pageShift;
        return a;
    }

    PiranhaSystem sys;
    AddressMap amap;
};

/** Prepare the case, then time the measured access. */
bool
l1Case(const L1Case &c, double &sim_ns, double &host_us)
{
    bool remote = c.expect == FillSource::MemRemote ||
                  c.expect == FillSource::RemoteDirty;
    SystemConfig cfg = remote ? configPn(2, c.expect == FillSource::MemRemote
                                                ? 2
                                                : 3)
                              : configP8();
    QuietSystem q(cfg);
    MemRsp rsp;
    Addr a = remote ? q.homedAt(0) : kL1Addr;
    unsigned node = 0;
    bool ok = true;
    switch (c.expect) {
    case FillSource::L1:
        ok = q.access(0, 0, MemOp::Load, a, rsp);
        break;
    case FillSource::L2Hit: {
        // Two conflicting loads push the line from the 2-way L1 into
        // the L2 (its victim cache).
        const L1Params &l1 = cfg.chip.l1d;
        Addr stride = static_cast<Addr>(l1.sizeBytes /
                                        (l1.assoc * lineBytes)) *
                      lineBytes * 8;
        for (Addr x : {a, a + stride, a + 2 * stride})
            ok = ok && q.access(0, 0, MemOp::Load, x, rsp);
        break;
    }
    case FillSource::L2Fwd:
        ok = q.access(0, 1, MemOp::Store, a, rsp); // cpu1 owns it
        break;
    case FillSource::MemRemote:
        node = 1;
        break;
    case FillSource::RemoteDirty:
        ok = q.access(1, 0, MemOp::Store, a, rsp); // dirty at node 1
        node = 2;
        break;
    default:
        break;
    }
    q.settle();
    Tick t0 = q.sys.eventQueue().curTick();
    Clock::time_point h0 = Clock::now();
    ok = ok && q.access(node, 0, MemOp::Load, a, rsp);
    host_us = secondsSince(h0) * 1e6;
    sim_ns = static_cast<double>(q.sys.eventQueue().curTick() - t0) /
             static_cast<double>(ticksPerNs);
    return ok && rsp.source == c.expect;
}

void
l1AccessDriver(DriverResult &d)
{
    for (const L1Case &c : kL1Cases) {
        std::vector<double> sim, host;
        for (int i = 0; i < kReps; ++i) {
            double s = 0, h = 0;
            if (!l1Case(c, s, h))
                fail(d, std::string(c.name) + ": wrong fill source");
            sim.push_back(s);
            host.push_back(h);
        }
        d.metrics.push_back({std::string("cache.l1.sim_ns.") + c.name,
                             summarize(sim).median, "ns"});
        d.metrics.push_back({std::string("cache.l1.host_us.") + c.name,
                             summarize(host).median, "us"});
    }
}

// ---------------------------------------------------------------- mem

constexpr std::uint64_t kEccOps = 400'000;

void
eccDriver(DriverResult &d)
{
    Pcg32 rng(2);
    std::vector<EccBlock> blocks(4096);
    for (EccBlock &b : blocks)
        b = {rng.next64(), rng.next64(), rng.next64(), rng.next64()};
    std::vector<std::uint16_t> checks(blocks.size());
    const std::uint64_t passes = kEccOps / blocks.size();
    double ns = medianNsPerOp(passes * blocks.size(), [&] {
        Clock::time_point t0 = Clock::now();
        for (std::uint64_t p = 0; p < passes; ++p)
            for (std::size_t i = 0; i < blocks.size(); ++i)
                checks[i] = Secded256::encode(blocks[i]);
        return secondsSince(t0);
    });
    // Checksum: every code word decodes clean, and a single flipped
    // data bit is corrected back to the original.
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        EccBlock b = blocks[i];
        if (Secded256::decode(b, checks[i]) != EccResult::Ok)
            fail(d, "clean block did not decode Ok");
        b[i % 4] ^= std::uint64_t(1) << (i % 64);
        if (Secded256::decode(b, checks[i]) != EccResult::CorrectedData ||
            b != blocks[i])
            fail(d, "single-bit error not corrected");
    }
    d.metrics = {{"mem.ecc.ns_per_encode", ns, "ns"}};
}

constexpr std::uint64_t kDirOps = 400'000;

void
directoryDriver(DriverResult &d)
{
    constexpr unsigned kNodes = 1024;
    Pcg32 rng(3);
    std::vector<DirEntry> entries;
    for (int i = 0; i < 4096; ++i) {
        DirEntry e(kNodes);
        unsigned n = 1 + rng.below(8);
        for (unsigned k = 0; k < n; ++k)
            e.addSharer(static_cast<NodeId>(rng.below(kNodes)));
        entries.push_back(e);
    }
    const std::uint64_t passes = kDirOps / entries.size();
    double ns = medianNsPerOp(passes * entries.size(), [&] {
        std::uint64_t bad = 0;
        Clock::time_point t0 = Clock::now();
        for (std::uint64_t p = 0; p < passes; ++p)
            for (const DirEntry &e : entries)
                bad += !(DirEntry::unpack(e.pack(), kNodes) == e);
        double s = secondsSince(t0);
        if (bad)
            fail(d, "pack/unpack round trip changed an entry");
        return s;
    });
    d.metrics = {{"mem.directory.ns_per_pack", ns, "ns"}};
}

// ---------------------------------------------------------------- noc

constexpr std::uint64_t kLinkOps = 1'000'000;

void
linkCodecDriver(DriverResult &d)
{
    double ns = medianNsPerOp(kLinkOps, [&] {
        std::uint64_t bad = 0;
        Clock::time_point t0 = Clock::now();
        for (std::uint64_t i = 0; i < kLinkOps; ++i) {
            auto data = static_cast<std::uint16_t>(i);
            auto aux = static_cast<std::uint8_t>((i >> 16) & 3);
            bool inv = (i >> 18) & 1;
            std::optional<LinkWord> w =
                LinkCodec::decode(LinkCodec::encode(data, aux, inv));
            bad += !w || w->data != data || w->aux != aux ||
                   w->inverted != inv;
        }
        double s = secondsSince(t0);
        if (bad)
            fail(d, "encode/decode round trip mismatch");
        return s;
    });
    d.metrics = {{"noc.link_codec.ns_per_roundtrip", ns, "ns"}};
}

} // namespace

std::vector<DriverResult>
runLayerDrivers(Tracer &tracer, unsigned run)
{
    const struct
    {
        const char *name;
        void (*fn)(DriverResult &);
    } drivers[] = {
        {"driver.sim.event_queue", eventQueueDriver},
        {"driver.sim.line_table", lineTableDriver},
        {"driver.sim.ring_buffer", ringBufferDriver},
        {"driver.cache.tag_array", tagArrayDriver},
        {"driver.cache.l1_access", l1AccessDriver},
        {"driver.mem.ecc", eccDriver},
        {"driver.mem.directory", directoryDriver},
        {"driver.noc.link_codec", linkCodecDriver},
    };
    std::vector<DriverResult> out;
    for (const auto &drv : drivers) {
        SpanScope span(tracer, drv.name, 0, run);
        out.emplace_back(drv.name);
        drv.fn(out.back());
    }
    return out;
}

DriverResult
runParallelDriver(const WorkloadDef &w, Tracer &tracer, unsigned run)
{
    DriverResult d("driver.sim.parallel");
    SystemConfig cfg = systemConfig(w);
    double speedup = 0, epochs = 0, per_epoch = 0, shard_max = 0;
    if (w.kind != Kind::Fig7Sweep && cfg.nodes > 1) {
        SpanScope span(tracer, d.name, 0, run);
        std::uint64_t total = w.totalWork / 4;
        auto once = [&](const SystemConfig &c, const char *name,
                        RunResult &r, std::string &tree) {
            SpanScope s(tracer, name, span.id(), run);
            std::unique_ptr<Workload> wl = makeGenerator(w, 1);
            PiranhaSystem sys(c);
            std::uint64_t per_cpu =
                std::max<std::uint64_t>(1, total / sys.totalCpus());
            Clock::time_point t0 = Clock::now();
            r = sys.run(*wl, per_cpu);
            double secs = secondsSince(t0);
            tree = statGroupToJson(sys.stats()).dump(0);
            if (r.aborted || r.work < per_cpu * sys.totalCpus())
                fail(d, std::string(name) + " run incomplete");
            return secs;
        };
        SystemConfig serial = cfg;
        serial.drainStop = true;
        SystemConfig sharded = cfg;
        sharded.engine = EngineKind::Parallel;
        sharded.shards = std::min(hostCpus(), cfg.nodes);
        RunResult rs, rp;
        std::string ts, tp;
        double s_serial = once(serial, "serial", rs, ts);
        double s_par = once(sharded, "parallel", rp, tp);
        if (ts != tp)
            fail(d, "sharded stat tree differs from serial drainStop");
        if (rp.engineFallback)
            fail(d, "engine fell back to serial");
        speedup = s_par > 0 ? s_serial / s_par : 0;
        epochs = static_cast<double>(rp.parallelEpochs);
        per_epoch = epochs > 0 ? static_cast<double>(rp.eventsExecuted) /
                                     epochs
                               : 0;
        for (double x : rp.shardHostSeconds)
            shard_max = std::max(shard_max, x);
    }
    d.metrics = {{"sim.parallel.speedup_vs_serial", speedup, "x"},
                 {"sim.parallel.epochs", epochs, "count"},
                 {"sim.parallel.events_per_epoch", per_epoch, "count"},
                 {"sim.parallel.shard_s_max", shard_max, "s"}};
    return d;
}

} // namespace perfbench
