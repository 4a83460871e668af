/**
 * @file
 * End-to-end smoke tests of the public API: every Table-1
 * configuration runs every workload for a small amount of work, the
 * results are sane (non-zero time, fractions sum to ~1, misses
 * categorized), and repeated runs are bit-identical (deterministic
 * simulation).
 */

#include <gtest/gtest.h>

#include "core/piranha.h"

namespace piranha {
namespace {

struct SmokeCase
{
    const char *config;
    SystemConfig (*make)();
};

// Print a case as its configuration name. gtest's default printer
// dumps the struct's raw bytes, i.e. two addresses, and those bytes
// end up in the ctest case names that gtest_discover_tests builds,
// so the names changed with every build and every address-space
// layout.
void PrintTo(const SmokeCase &c, std::ostream *os) { *os << c.config; }

SystemConfig makeP1() { return configP1(); }
SystemConfig makeP8() { return configP8(); }
SystemConfig makeOOO() { return configOOO(1); }
SystemConfig makeINO() { return configINO(); }
SystemConfig makeP8F() { return configP8F(); }
SystemConfig makePess() { return configP8Pessimistic(); }

class SystemSmoke : public ::testing::TestWithParam<SmokeCase>
{
};

TEST_P(SystemSmoke, OltpRunsAndReportsSanely)
{
    OltpWorkload wl;
    PiranhaSystem sys(GetParam().make());
    RunResult r = sys.run(wl, 30);
    EXPECT_GT(r.execTime, 0u);
    EXPECT_EQ(r.work, 30u * sys.totalCpus());
    double frac_sum = r.busyFrac + r.l2HitStallFrac +
                      r.l2MissStallFrac + r.idleFrac;
    EXPECT_NEAR(frac_sum, 1.0, 0.01);
    EXPECT_GT(r.instructions, 1000.0);
    EXPECT_GT(r.misses.total(), 0.0);
}

TEST_P(SystemSmoke, DssRunsAndReportsSanely)
{
    DssWorkload wl;
    PiranhaSystem sys(GetParam().make());
    RunResult r = sys.run(wl, 2);
    EXPECT_GT(r.execTime, 0u);
    EXPECT_GT(r.busyFrac, 0.3); // DSS is compute-heavy everywhere
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SystemSmoke,
    ::testing::Values(SmokeCase{"P1", makeP1}, SmokeCase{"P8", makeP8},
                      SmokeCase{"OOO", makeOOO},
                      SmokeCase{"INO", makeINO},
                      SmokeCase{"P8F", makeP8F},
                      SmokeCase{"P8pess", makePess}),
    [](const ::testing::TestParamInfo<SmokeCase> &info) {
        return std::string(info.param.config);
    });

TEST(SystemSmoke, MultiNodeConfigurations)
{
    for (unsigned nodes : {2u, 3u, 4u}) {
        OltpWorkload wl;
        PiranhaSystem sys(configPn(2, nodes));
        RunResult r = sys.run(wl, 20);
        EXPECT_EQ(r.work, 20u * 2 * nodes) << nodes << " nodes";
        // Multi-node runs must show remote traffic.
        EXPECT_GT(r.misses.memRemote + r.misses.remoteDirty, 0.0);
    }
}

TEST(SystemSmoke, DeterministicAcrossRuns)
{
    auto run_once = [] {
        OltpWorkload wl;
        PiranhaSystem sys(configPn(4, 2));
        return sys.run(wl, 40);
    };
    RunResult a = run_once();
    RunResult b = run_once();
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.misses.l2Hit, b.misses.l2Hit);
    EXPECT_EQ(a.misses.l2Fwd, b.misses.l2Fwd);
}

TEST(SystemSmoke, StatsReportProducesOutput)
{
    OltpWorkload wl;
    PiranhaSystem sys(configP1());
    sys.run(wl, 10);
    std::ostringstream os;
    sys.stats().report(os);
    std::string out = os.str();
    EXPECT_NE(out.find("l2_hit"), std::string::npos);
    EXPECT_NE(out.find("transfers"), std::string::npos);
    EXPECT_NE(out.find("page_hits"), std::string::npos);
}

} // namespace
} // namespace piranha
