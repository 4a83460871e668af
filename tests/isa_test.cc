/**
 * @file
 * Alpha-subset ISA tests: encode/decode round trips over the real
 * instruction formats, the assembler (labels, literal forms, ldiq
 * expansion), and whole programs executing on the timing cores with
 * instructions and data flowing through the simulated coherent
 * memory — including a multi-core LL/SC atomic-counter kernel.
 */

#include <gtest/gtest.h>

#include "cpu/core.h"
#include "isa/isa_core.h"
#include "test_system.h"

namespace piranha {
namespace {

TEST(Isa, EncodeDecodeRoundTripAllFormats)
{
    Pcg32 rng(1);
    std::vector<AlphaOp> ops = {
        AlphaOp::LDA, AlphaOp::LDQ, AlphaOp::STQ,  AlphaOp::LDQ_L,
        AlphaOp::BR,  AlphaOp::BEQ, AlphaOp::INTA, AlphaOp::INTL,
        AlphaOp::INTS};
    for (int t = 0; t < 5000; ++t) {
        AlphaInstr i;
        i.op = ops[rng.below(static_cast<std::uint32_t>(ops.size()))];
        i.ra = rng.below(32);
        i.rb = rng.below(32);
        i.rc = rng.below(32);
        if (alphaIsBranch(i.op)) {
            i.disp = static_cast<std::int32_t>(rng.below(1 << 20)) -
                     (1 << 19);
        } else if (alphaIsMemory(i.op)) {
            i.disp = static_cast<std::int32_t>(rng.below(1 << 16)) -
                     (1 << 15);
        } else {
            i.useLit = rng.chance(0.5);
            i.lit = static_cast<std::uint8_t>(rng.below(256));
            i.func = static_cast<std::uint8_t>(AlphaFunc::ADDQ);
        }
        auto back = AlphaInstr::decode(i.encode());
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->op, i.op);
        EXPECT_EQ(back->ra, i.ra);
        if (alphaIsMemory(i.op) || alphaIsBranch(i.op)) {
            EXPECT_EQ(back->disp, i.disp);
        }
        if (alphaIsOperate(i.op)) {
            EXPECT_EQ(back->useLit, i.useLit);
            EXPECT_EQ(back->func, i.func);
            EXPECT_EQ(back->rc, i.rc);
        }
    }
}

TEST(Isa, DisasmReadable)
{
    AlphaInstr i;
    i.op = AlphaOp::INTA;
    i.func = static_cast<std::uint8_t>(AlphaFunc::ADDQ);
    i.ra = 1;
    i.rb = 2;
    i.rc = 3;
    EXPECT_EQ(i.disasm(), "addq r1, r2, r3");
}

TEST(Assembler, LabelsAndBranches)
{
    AlphaProgram p = assembleAlpha(R"(
        ; count down from 3
        ldiq r1, 3
loop:   subq r1, #1, r1
        bne r1, loop
        call_pal halt
    )",
                                   0x10000);
    EXPECT_GE(p.words.size(), 4u);
    EXPECT_EQ(p.symbols.count("loop"), 1u);
    // The bne must branch backwards to `loop`.
    auto bne = AlphaInstr::decode(
        p.words[(p.symbol("loop") - p.base) / 4 + 1]);
    ASSERT_TRUE(bne.has_value());
    EXPECT_EQ(bne->op, AlphaOp::BNE);
    EXPECT_EQ(bne->disp, -2);
}

TEST(Assembler, LdiqBuildsLargeConstants)
{
    for (std::uint64_t v :
         {0ULL, 1ULL, 0x7fffULL, 0x8000ULL, 0xdeadbeefULL,
          0x400000000ULL, 0xfedcba9876543210ULL}) {
        AlphaProgram p = assembleAlpha(
            strFormat("ldiq r5, %llu\n call_pal halt\n",
                      static_cast<unsigned long long>(v)),
            0x10000);
        // Execute functionally without memory ops.
        IsaMachine m;
        m.fetchWord = [&](Addr a) {
            return p.words[(a - p.base) / 4];
        };
        IsaCore core(m, 0, p.base);
        while (!core.halted()) {
            StreamOp op = core.next();
            ASSERT_NE(op.kind, StreamOp::Kind::Load);
            if (op.kind == StreamOp::Kind::Done)
                break;
        }
        EXPECT_EQ(core.reg(5), v) << "value " << std::hex << v;
    }
}

/** Load a program image into the simulated memory of a system. */
void
loadProgram(TestSystem &sys, const AlphaProgram &p)
{
    for (std::size_t i = 0; i < p.words.size(); ++i) {
        Addr a = p.base + i * 4;
        unsigned home = sys.amap.home(a);
        sys.chips[home]->memory().line(a).data.write(
            static_cast<unsigned>(a & (lineBytes - 1)), 4, p.words[i]);
    }
}

IsaMachine
machineFor(TestSystem &sys)
{
    IsaMachine m;
    m.fetchWord = [&sys](Addr a) {
        unsigned home = sys.amap.home(a);
        return static_cast<std::uint32_t>(
            sys.chips[home]->memory().read(a).data.read(
                static_cast<unsigned>(a & (lineBytes - 1)), 4));
    };
    return m;
}

TEST(IsaSystem, SumLoopThroughCoherentMemory)
{
    // Sum an array of 10 quadwords living in simulated memory.
    TestSystem sys(1, 1);
    Addr data = 0x2000000;
    for (int i = 0; i < 10; ++i)
        sys.chips[0]->memory().poke64(data + i * 8, 100 + i);

    AlphaProgram p = assembleAlpha(R"(
        ldiq r1, 0x2000000    ; array base
        ldiq r2, 10           ; count
        bis r31, r31, r3      ; sum = 0
loop:   ldq r4, 0(r1)
        addq r3, r4, r3
        lda r1, 8(r1)
        subq r2, #1, r2
        bne r2, loop
        bis r3, r31, r16
        call_pal putint
        call_pal halt
    )",
                                   0x1000000);
    loadProgram(sys, p);
    IsaMachine m = machineFor(sys);
    IsaCore ic(m, 0, p.base);
    Core core(sys.eq, "cpu0", sys.chips[0]->clock(),
              sys.chips[0]->dl1(0), sys.chips[0]->il1(0),
              CoreParams{});
    core.start(&ic);
    sys.eq.run();
    EXPECT_TRUE(ic.halted());
    EXPECT_EQ(ic.reg(3), 1045u + 0u); // 100+101+...+109 = 1045
    EXPECT_EQ(ic.console(), "1045");
    EXPECT_GT(core.statInstrs.value(), 40.0);
}

TEST(IsaSystem, StoresVisibleAcrossCores)
{
    TestSystem sys(1, 2);
    AlphaProgram writer = assembleAlpha(R"(
        ldiq r1, 0x3000000
        ldiq r2, 0x77
        stq r2, 0(r1)
        call_pal halt
    )",
                                        0x1000000);
    AlphaProgram reader = assembleAlpha(R"(
        ldiq r1, 0x3000000
wait:   ldq r2, 0(r1)
        beq r2, wait
        call_pal halt
    )",
                                        0x1100000);
    loadProgram(sys, writer);
    loadProgram(sys, reader);
    IsaMachine m = machineFor(sys);
    IsaCore w(m, 0, writer.base), r(m, 1, reader.base);
    Core c0(sys.eq, "cpu0", sys.chips[0]->clock(),
            sys.chips[0]->dl1(0), sys.chips[0]->il1(0), CoreParams{});
    Core c1(sys.eq, "cpu1", sys.chips[0]->clock(),
            sys.chips[0]->dl1(1), sys.chips[0]->il1(1), CoreParams{});
    c0.start(&w);
    c1.start(&r);
    sys.eq.run();
    EXPECT_TRUE(w.halted());
    EXPECT_TRUE(r.halted());
    EXPECT_EQ(r.reg(2), 0x77u);
}

TEST(IsaSystem, LlScAtomicCounterMultiCoreMultiNode)
{
    // Four cores on two chips each add their id+1 to a shared counter
    // 50 times with a ldq_l/stq_c loop; the total must be exact.
    TestSystem sys(2, 2);
    Addr counter = 0x3000000;
    const char *src = R"(
        ; r16 = my increment; r17 = iterations
        ldiq r1, 0x3000000
again:  ldq_l r2, 0(r1)
        addq r2, r16, r2
        stq_c r2, 0(r1)
        beq r2, again       ; retry on failure
        subq r17, #1, r17
        bne r17, again
        call_pal halt
    )";
    AlphaProgram p = assembleAlpha(src, 0x1000000);
    loadProgram(sys, p);
    IsaMachine m = machineFor(sys);

    std::vector<std::unique_ptr<IsaCore>> ics;
    std::vector<std::unique_ptr<Core>> cores;
    std::uint64_t expected = 0;
    for (unsigned n = 0; n < 2; ++n) {
        for (unsigned c = 0; c < 2; ++c) {
            unsigned id = n * 2 + c;
            auto ic = std::make_unique<IsaCore>(
                m, static_cast<int>(id), p.base);
            ic->setReg(16, id + 1);
            ic->setReg(17, 50);
            expected += (id + 1) * 50;
            auto core = std::make_unique<Core>(
                sys.eq, strFormat("n%uc%u", n, c),
                sys.chips[n]->clock(), sys.chips[n]->dl1(c),
                sys.chips[n]->il1(c), CoreParams{});
            core->start(ic.get());
            cores.push_back(std::move(core));
            ics.push_back(std::move(ic));
        }
    }
    sys.eq.run();
    for (auto &ic : ics)
        EXPECT_TRUE(ic->halted());
    EXPECT_EQ(sys.load(0, 0, counter), expected);
}

TEST(IsaSystem, Wh64ClaimsLine)
{
    TestSystem sys(1, 1);
    AlphaProgram p = assembleAlpha(R"(
        ldiq r1, 0x4000000
        wh64 (r1)
        ldiq r2, 42
        stq r2, 0(r1)
        call_pal halt
    )",
                                   0x1000000);
    loadProgram(sys, p);
    IsaMachine m = machineFor(sys);
    IsaCore ic(m, 0, p.base);
    Core core(sys.eq, "cpu0", sys.chips[0]->clock(),
              sys.chips[0]->dl1(0), sys.chips[0]->il1(0),
              CoreParams{});
    core.start(&ic);
    sys.eq.run();
    EXPECT_TRUE(ic.halted());
    EXPECT_EQ(sys.load(0, 0, 0x4000000), 42u);
}

} // namespace
} // namespace piranha
