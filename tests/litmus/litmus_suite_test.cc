/**
 * @file
 * The built-in litmus suite, unmutated: every program under several
 * seeds must complete, never hit its forbidden outcome, and produce a
 * trace the axiomatic checker accepts. Two independent oracles — the
 * outcome predicate and the trace replay — must both stay green.
 */

#include <gtest/gtest.h>

#include "check/litmus.h"
#include "sim/logging.h"

namespace piranha {
namespace {

struct SuiteParam
{
    std::size_t prog;
    std::uint64_t seed;
    // Drive the run with the parallel engine. A full word, not a bool:
    // gtest prints the param's raw bytes into each ctest case name, and
    // a bool would leave seven bytes of uninitialized padding there.
    std::uint64_t parallel;
};

class LitmusSuiteTest : public ::testing::TestWithParam<SuiteParam>
{
};

TEST_P(LitmusSuiteTest, CleanRunHasNoViolations)
{
    const LitmusProgram &prog =
        builtinLitmusPrograms()[GetParam().prog];
    LitmusRunOptions opt;
    opt.seed = GetParam().seed;
    opt.parallel = GetParam().parallel;
    LitmusResult res = runLitmus(prog, opt);

    ASSERT_TRUE(res.completed) << prog.name << ": run did not converge";
    EXPECT_FALSE(res.forbiddenHit)
        << prog.name << ": forbidden outcome (" << prog.forbiddenDesc
        << ")";
    EXPECT_TRUE(res.report.ok()) << prog.name << ":\n"
                                 << res.report.summary(res.trace);
    // The run must actually have produced protocol events (not just
    // the harness's Init/Marker records).
    EXPECT_TRUE(res.report.sawSettleMarker);
    EXPECT_GT(res.trace.size(),
              std::size_t(prog.locs.size()) * (lineBytes / 8) + 1);
}

std::vector<SuiteParam>
allParams()
{
    std::vector<SuiteParam> out;
    for (std::size_t p = 0; p < builtinLitmusPrograms().size(); ++p)
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            out.push_back({p, seed, false});
            out.push_back({p, seed, true});
        }
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, LitmusSuiteTest, ::testing::ValuesIn(allParams()),
    [](const ::testing::TestParamInfo<SuiteParam> &info) {
        std::string name =
            builtinLitmusPrograms()[info.param.prog].name;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return strFormat("%s_seed%llu%s", name.c_str(),
                         (unsigned long long)info.param.seed,
                         info.param.parallel ? "_parallel" : "");
    });

} // namespace
} // namespace piranha
