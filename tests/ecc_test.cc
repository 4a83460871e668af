/**
 * @file
 * Tests for SECDED-over-256-bit ECC (paper §2.5.2): the construction
 * that frees 44 bits per 64-byte line for directory storage.
 */

#include <gtest/gtest.h>

#include "fault/injector.h"
#include "mem/backing_store.h"
#include "mem/ecc.h"
#include "mem/mem_ctrl.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace piranha {
namespace {

EccBlock
randomBlock(Pcg32 &rng)
{
    return EccBlock{rng.next64(), rng.next64(), rng.next64(),
                    rng.next64()};
}

TEST(Secded256, CleanDataPasses)
{
    Pcg32 rng(11);
    for (int i = 0; i < 2000; ++i) {
        EccBlock d = randomBlock(rng);
        auto check = Secded256::encode(d);
        EXPECT_EQ(Secded256::decode(d, check), EccResult::Ok);
    }
}

TEST(Secded256, BudgetLeaves44DirectoryBits)
{
    // 64-byte line = 2 x 256-bit blocks; 64 ECC bits total per line.
    EXPECT_EQ(2 * Secded256::checkBits, 20u);
    EXPECT_EQ(64u - 2 * Secded256::checkBits, 44u);
}

TEST(Secded256, CorrectsEverySingleBitDataError)
{
    Pcg32 rng(12);
    EccBlock orig = randomBlock(rng);
    auto check = Secded256::encode(orig);
    for (unsigned bit = 0; bit < 256; ++bit) {
        EccBlock d = orig;
        d[bit / 64] ^= 1ULL << (bit % 64);
        EXPECT_EQ(Secded256::decode(d, check), EccResult::CorrectedData)
            << "bit " << bit;
        EXPECT_EQ(d, orig) << "bit " << bit;
    }
}

TEST(Secded256, CorrectsCheckBitErrors)
{
    Pcg32 rng(13);
    EccBlock orig = randomBlock(rng);
    auto check = Secded256::encode(orig);
    for (unsigned bit = 0; bit < Secded256::checkBits; ++bit) {
        EccBlock d = orig;
        auto bad = static_cast<std::uint16_t>(check ^ (1u << bit));
        EXPECT_EQ(Secded256::decode(d, bad), EccResult::CorrectedCheck)
            << "check bit " << bit;
        EXPECT_EQ(d, orig);
    }
}

TEST(Secded256, DetectsDoubleBitErrors)
{
    Pcg32 rng(14);
    for (int i = 0; i < 3000; ++i) {
        EccBlock orig = randomBlock(rng);
        auto check = Secded256::encode(orig);
        unsigned b1 = rng.below(256);
        unsigned b2 = rng.below(256);
        if (b1 == b2)
            continue;
        EccBlock d = orig;
        d[b1 / 64] ^= 1ULL << (b1 % 64);
        d[b2 / 64] ^= 1ULL << (b2 % 64);
        EXPECT_EQ(Secded256::decode(d, check), EccResult::Uncorrectable);
    }
}

TEST(Secded256, CheckBitsDependOnData)
{
    EccBlock a{0, 0, 0, 0};
    EccBlock b{1, 0, 0, 0};
    EXPECT_NE(Secded256::encode(a), Secded256::encode(b));
}

// The check word shares the line's 64 ECC bits with the 44 directory
// bits (§2.5.2), so corruption hitting the ECC-bit field itself must
// stay within the SECDED guarantees: any double flip involving the
// stored check bits is detected, never miscorrected into bogus data
// or bogus directory interpretation.

TEST(Secded256, DetectsDataPlusCheckBitDoubleErrors)
{
    Pcg32 rng(15);
    EccBlock orig = randomBlock(rng);
    auto check = Secded256::encode(orig);
    for (unsigned db = 0; db < 256; db += 7) {
        for (unsigned cb = 0; cb < Secded256::checkBits; ++cb) {
            EccBlock d = orig;
            d[db / 64] ^= 1ULL << (db % 64);
            auto bad = static_cast<std::uint16_t>(check ^ (1u << cb));
            EXPECT_EQ(Secded256::decode(d, bad),
                      EccResult::Uncorrectable)
                << "data bit " << db << " + check bit " << cb;
        }
    }
}

TEST(Secded256, DetectsDoubleCheckBitErrors)
{
    Pcg32 rng(16);
    EccBlock orig = randomBlock(rng);
    auto check = Secded256::encode(orig);
    for (unsigned b1 = 0; b1 < Secded256::checkBits; ++b1) {
        for (unsigned b2 = b1 + 1; b2 < Secded256::checkBits; ++b2) {
            EccBlock d = orig;
            auto bad = static_cast<std::uint16_t>(
                check ^ (1u << b1) ^ (1u << b2));
            EXPECT_EQ(Secded256::decode(d, bad),
                      EccResult::Uncorrectable)
                << "check bits " << b1 << "," << b2;
            EXPECT_EQ(d, orig) << "miscorrected data";
        }
    }
}

TEST(Secded256, CheckBitOnlyCorruptionNeverAltersData)
{
    // Single check-bit flips correct on the check side; the data must
    // come through untouched for every possible corrupted check word.
    Pcg32 rng(17);
    EccBlock orig = randomBlock(rng);
    auto check = Secded256::encode(orig);
    for (unsigned bit = 0; bit < Secded256::checkBits; ++bit) {
        EccBlock d = orig;
        auto bad = static_cast<std::uint16_t>(check ^ (1u << bit));
        EXPECT_EQ(Secded256::decode(d, bad), EccResult::CorrectedCheck);
        EXPECT_EQ(d, orig);
    }
}

/**
 * Flip-then-scrub round trip through the memory controller: a planned
 * single-bit fault lands in a stored line, the next read corrects it
 * through the real SECDED decode and scrubs the stored copy, and a
 * second read finds memory consistent again.
 */
TEST(FaultScrub, FlipThenScrubRoundTripThroughMemCtrl)
{
    EventQueue eq;
    BackingStore store;

    FaultPlanConfig plan;
    plan.planned = {PlannedFault{FaultKind::MemDataFlip,
                                 100 * ticksPerNs, 0}};
    FaultInjector inj(eq, "inj", plan, 1);
    MemCtrl mc(eq, "mc", ChipContext{.injector = &inj}, store);
    FaultInjector::NodeSites sites;
    sites.store = &store;
    sites.mcs = {&mc};
    inj.attachNode(0, sites);

    const Addr a = 0x1000;
    LineData orig;
    for (unsigned i = 0; i < lineBytes; ++i)
        orig.bytes[i] = static_cast<std::uint8_t>(0xA0 + i);
    mc.writeLine(a, &orig, nullptr);
    inj.arm();
    while (eq.step()) {
    }
    ASSERT_EQ(inj.counters.fired, 1u);
    // The stored copy really is corrupt (one bit differs).
    unsigned diff_bits = 0;
    for (unsigned i = 0; i < lineBytes; ++i)
        diff_bits += static_cast<unsigned>(__builtin_popcount(
            store.read(a).data.bytes[i] ^ orig.bytes[i]));
    EXPECT_EQ(diff_bits, 1u);

    bool got = false;
    mc.readLine(a, [&](const LineData &d, std::uint64_t) {
        got = true;
        EXPECT_EQ(d.bytes, orig.bytes) << "read not corrected";
    });
    while (eq.step()) {
    }
    ASSERT_TRUE(got);
    EXPECT_EQ(inj.counters.eccCorrectedData, 1u);
    EXPECT_EQ(inj.counters.scrubWrites, 1u);
    // Scrub rewrote the stored copy: bit-exact again.
    EXPECT_EQ(store.read(a).data.bytes, orig.bytes);

    // Second read: consistent, no further correction.
    got = false;
    mc.readLine(a, [&](const LineData &d, std::uint64_t) {
        got = true;
        EXPECT_EQ(d.bytes, orig.bytes);
    });
    while (eq.step()) {
    }
    ASSERT_TRUE(got);
    EXPECT_EQ(inj.counters.eccCorrectedData, 1u);
    EXPECT_EQ(inj.counters.scrubWrites, 1u);
}

} // namespace
} // namespace piranha
