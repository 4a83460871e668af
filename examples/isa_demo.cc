/**
 * @file
 * Running real Alpha-subset code on the simulated hardware: eight
 * cores (one Piranha chip) execute an assembled program from the
 * simulated coherent memory. Each core atomically pushes its id onto
 * a shared stack-like log with a ldq_l/stq_c loop, adds to a shared
 * checksum, and halts; core 0 then prints the checksum through
 * CALL_PAL. Instruction fetch, data, and the LL/SC traffic all flow
 * through the modeled L1s, intra-chip switch, L2 banks and memory
 * controllers.
 */

#include <cstdio>

#include "core/piranha.h"
#include "isa/isa_core.h"

using namespace piranha;

int
main()
{
    PiranhaSystem sys(SystemConfig{}); // one P8-style chip
    EventQueue &eq = sys.eventQueue();
    PiranhaChip &chip = sys.chip(0);

    const char *src = R"(
        ; r16 = my id (0..7)
        ldiq r1, 0x3000000      ; shared counter
        ldiq r9, 20             ; iterations
work:   ldq_l r2, 0(r1)
        addq r2, r16, r2
        addq r2, #1, r2
        stq_c r2, 0(r1)
        beq r2, work
        subq r9, #1, r9
        bne r9, work
        ; publish "done" flag for my slot
        ldiq r3, 0x3100000
        sll r16, #6, r4         ; one cache line per core
        addq r3, r4, r3
        ldiq r5, 1
        stq r5, 0(r3)
        call_pal halt
    )";
    AlphaProgram prog = assembleAlpha(src, 0x1000000);
    for (std::size_t i = 0; i < prog.words.size(); ++i) {
        Addr a = prog.base + i * 4;
        chip.memory().line(a).data.write(
            static_cast<unsigned>(a & (lineBytes - 1)), 4,
            prog.words[i]);
    }

    IsaMachine machine;
    machine.fetchWord = [&chip](Addr a) {
        return static_cast<std::uint32_t>(chip.memory().read(a).data.read(
            static_cast<unsigned>(a & (lineBytes - 1)), 4));
    };

    std::vector<std::unique_ptr<IsaCore>> ics;
    std::vector<std::unique_ptr<Core>> cores;
    std::uint64_t expected = 0;
    for (unsigned c = 0; c < 8; ++c) {
        auto ic = std::make_unique<IsaCore>(machine, (int)c, prog.base);
        ic->setReg(16, c);
        expected += (c + 1) * 20;
        auto core = std::make_unique<Core>(eq, strFormat("cpu%u", c),
                                           chip.clock(), chip.dl1(c),
                                           chip.il1(c), CoreParams{});
        core->start(ic.get());
        ics.push_back(std::move(ic));
        cores.push_back(std::move(core));
    }
    eq.run();

    // Read the counter coherently (it lives modified in some L1, not
    // in memory — reading the backing store would see stale data).
    std::uint64_t counter = 0;
    {
        bool done = false;
        MemReq req;
        req.op = MemOp::Load;
        req.addr = 0x3000000;
        req.size = 8;
        chip.dl1(0).access(req, [&](const MemRsp &r) {
            counter = r.value;
            done = true;
        });
        while (!done && eq.step()) {
        }
    }
    std::printf("8 cores x 20 LL/SC increments: counter = %llu "
                "(expected %llu) %s\n",
                (unsigned long long)counter,
                (unsigned long long)expected,
                counter == expected ? "OK" : "LOST UPDATES");
    double instrs = 0, time_ns = 0;
    for (unsigned c = 0; c < 8; ++c) {
        instrs += (double)ics[c]->instructionsRetired();
        time_ns = std::max(
            time_ns, (double)cores[c]->accountedTime() / ticksPerNs);
    }
    std::printf("retired %.0f instructions in %.0f ns "
                "(%.2f aggregate IPC at 500 MHz)\n",
                instrs, time_ns, instrs / (time_ns / 2.0));
    auto mb = chip.missBreakdown();
    std::printf("L1 misses serviced: L2 %.0f, peer-L1 fwd %.0f, "
                "memory %.0f\n",
                mb.l2Hit, mb.l2Fwd, mb.memLocal);
    return counter == expected ? 0 : 1;
}
