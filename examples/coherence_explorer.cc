/**
 * @file
 * Coherence explorer: drives the memory system directly through the
 * L1 ports of a three-node system (no CPU model) and narrates where
 * each access is serviced and how long it takes — local memory with
 * a clean-exclusive grant, L1-to-L1 forwarding on a chip, a 2-hop
 * remote read, a 3-hop read of a remote-dirty line, an upgrade, and
 * a cruise-missile invalidation — then prints the protocol engines'
 * microcode statistics.
 */

#include <cstdio>

#include "core/piranha.h"

using namespace piranha;

namespace {

struct Explorer
{
    PiranhaSystem sys;
    EventQueue &eq = sys.eventQueue();

    explicit Explorer(const SystemConfig &cfg) : sys(cfg) {}

    double
    access(unsigned node, unsigned cpu, MemOp op, Addr a,
           const char *what)
    {
        Tick start = eq.curTick();
        bool done = false;
        FillSource src{};
        MemReq req;
        req.op = op;
        req.addr = a;
        req.size = 8;
        req.value = 0xbeef;
        sys.chip(node).dl1(cpu).access(req, [&](const MemRsp &r) {
            done = true;
            src = r.source;
        });
        while (!done && eq.step()) {
        }
        double ns = double(eq.curTick() - start) / ticksPerNs;
        std::printf("  %-44s %8.1f ns  (%s)\n", what, ns,
                    fillSourceName(src));
        eq.run(eq.curTick() + 10 * ticksPerUs); // settle
        return ns;
    }
};

} // namespace

int
main()
{
    SystemConfig cfg; // P8-style chip defaults
    cfg.nodes = 3;
    Explorer x(cfg);
    Addr a = 0x5000000;
    const AddressMap &amap = x.sys.addressMap();
    while (amap.home(a) != 0)
        a += 1ULL << amap.pageShift;

    std::printf("line %#llx, homed at node 0\n\n",
                (unsigned long long)a);
    x.access(0, 0, MemOp::Load, a,
             "node0.cpu0 load (local memory, clean-excl)");
    x.access(0, 0, MemOp::Load, a, "node0.cpu0 load again (L1 hit)");
    x.access(0, 3, MemOp::Load, a,
             "node0.cpu3 load (L1-to-L1 forward)");
    x.access(1, 0, MemOp::Load, a, "node1.cpu0 load (2-hop remote)");
    x.access(1, 0, MemOp::Store, a,
             "node1.cpu0 store (upgrade + invalidations)");
    x.access(2, 0, MemOp::Load, a,
             "node2.cpu0 load (3-hop, remote dirty)");
    x.access(0, 0, MemOp::Store, a,
             "node0.cpu0 store (home reclaims, CMI invals)");

    std::printf("\nprotocol engines:\n");
    for (unsigned n = 0; n < 3; ++n) {
        auto &he = x.sys.chip(n).homeEngine();
        auto &re = x.sys.chip(n).remoteEngine();
        std::printf("  node%u HE: %4.0f threads, %5.0f uinstrs "
                    "(%.1f/transaction)   RE: %4.0f threads, %5.0f "
                    "uinstrs\n",
                    n, he.statThreads.value(), he.statInstrs.value(),
                    he.statThreads.value()
                        ? he.statInstrs.value() / he.statThreads.value()
                        : 0.0,
                    re.statThreads.value(), re.statInstrs.value());
    }
    std::printf("\nmicrocode: home %zu words (%zu instrs), remote %zu "
                "words (%zu instrs), budget 1024\n",
                x.sys.chip(0).homeEngine().program().mem.size(),
                x.sys.chip(0).homeEngine().program().instructionCount(),
                x.sys.chip(0).remoteEngine().program().mem.size(),
                x.sys.chip(0).remoteEngine().program().instructionCount());
    return 0;
}
