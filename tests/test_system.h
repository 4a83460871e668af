/**
 * @file
 * Shared test fixture: a PiranhaSystem whose CPU ports the tests
 * drive directly (the system's cores are never started), with
 * synchronous helpers for protocol tests and asynchronous agents for
 * the random tester. Chips, network and delivery fabric are wired by
 * PiranhaSystem exactly as for every workload run.
 */

#ifndef PIRANHA_TESTS_TEST_SYSTEM_H
#define PIRANHA_TESTS_TEST_SYSTEM_H

#include <vector>

#include "check/trace.h"
#include "system/sim_system.h"

namespace piranha {

/** Optional TestSystem behaviors beyond the classic serial fixture. */
struct TestSystemOptions
{
    /** Per-chip event queues driven by the parallel engine
     *  (DESIGN.md §13), one worker per chip, instead of one shared
     *  serial queue. */
    bool parallel = false;
    /** Per-chip tracer override (size = nodes); required instead of
     *  ChipParams::tracer when parallel (tracers are not
     *  thread-safe across chips). */
    std::vector<CoherenceTracer *> chipTracers;
};

class TestSystem : public PiranhaSystem
{
  public:
    explicit TestSystem(unsigned nodes = 1, unsigned cpus = 8,
                        ChipParams params = ChipParams{},
                        TestSystemOptions opts = TestSystemOptions{})
        : PiranhaSystem(config(nodes, cpus, params, std::move(opts))),
          eq(eventQueue()), amap(addressMap())
    {
        for (unsigned n = 0; n < nodes; ++n)
            chips.push_back(&chip(n));
    }

    /** Synchronous load: run the system until the access completes. */
    std::uint64_t
    load(unsigned node, unsigned cpu, Addr addr, unsigned size = 8,
         FillSource *src_out = nullptr)
    {
        bool done = false;
        std::uint64_t value = 0;
        MemReq req;
        req.op = MemOp::Load;
        req.addr = addr;
        req.size = static_cast<std::uint8_t>(size);
        chips[node]->dl1(cpu).access(req, [&](const MemRsp &r) {
            value = r.value;
            if (src_out)
                *src_out = r.source;
            done = true;
        });
        waitFor(done);
        return value;
    }

    /** Synchronous ifetch. */
    std::uint64_t
    ifetch(unsigned node, unsigned cpu, Addr addr,
           FillSource *src_out = nullptr)
    {
        bool done = false;
        std::uint64_t value = 0;
        MemReq req;
        req.op = MemOp::Ifetch;
        req.addr = addr;
        req.size = 4;
        chips[node]->il1(cpu).access(req, [&](const MemRsp &r) {
            value = r.value;
            if (src_out)
                *src_out = r.source;
            done = true;
        });
        waitFor(done);
        return value;
    }

    /** Synchronous store (completes into the store buffer). */
    void
    store(unsigned node, unsigned cpu, Addr addr, std::uint64_t value,
          unsigned size = 8)
    {
        bool done = false;
        MemReq req;
        req.op = MemOp::Store;
        req.addr = addr;
        req.size = static_cast<std::uint8_t>(size);
        req.value = value;
        chips[node]->dl1(cpu).access(req,
                                     [&](const MemRsp &) { done = true; });
        waitFor(done);
    }

    /** Synchronous write-hint (wh64). */
    void
    wh64(unsigned node, unsigned cpu, Addr addr)
    {
        bool done = false;
        MemReq req;
        req.op = MemOp::Wh64;
        req.addr = addr;
        chips[node]->dl1(cpu).access(req,
                                     [&](const MemRsp &) { done = true; });
        waitFor(done);
    }

    /** Drain every pending event (store buffers, protocol, network). */
    void settle() { drain(); }

    void
    waitFor(bool &flag)
    {
        if (parallelEngine()) {
            drain();
            if (!flag)
                panic("test system deadlock: queues drained while "
                      "waiting");
            return;
        }
        while (!flag) {
            if (!eq.step())
                panic("test system deadlock: event queue drained "
                      "while waiting");
        }
    }

    EventQueue &eq; //!< the serial engine's one queue
    const AddressMap &amap;
    std::vector<PiranhaChip *> chips;

  private:
    static SystemConfig
    config(unsigned nodes, unsigned cpus, const ChipParams &params,
           TestSystemOptions opts)
    {
        SystemConfig cfg;
        cfg.nodes = nodes;
        cfg.cpusPerChip = cpus;
        cfg.chip = params;
        cfg.chip.cpus = cpus;
        cfg.engine =
            opts.parallel ? EngineKind::Parallel : EngineKind::Serial;
        cfg.chipTracers = std::move(opts.chipTracers);
        return cfg;
    }
};

/** An address homed at @p node (page-interleaved homes); @p line
 *  selects distinct lines within the chosen page. */
inline Addr
homedAt(const TestSystem &sys, unsigned node, unsigned line = 0)
{
    Addr a = 0x5000000 + line * lineBytes;
    while (sys.amap.home(a) != node)
        a += 1ULL << sys.amap.pageShift;
    return a;
}

/** Issue an access without waiting for completion. */
inline void
fire(TestSystem &sys, unsigned node, unsigned cpu, MemOp op, Addr a,
     std::uint64_t v, bool *done = nullptr)
{
    MemReq req;
    req.op = op;
    req.addr = a;
    req.size = 8;
    req.value = v;
    sys.chips[node]->dl1(cpu).access(req, [done](const MemRsp &) {
        if (done)
            *done = true;
    });
}

} // namespace piranha

#endif // PIRANHA_TESTS_TEST_SYSTEM_H
