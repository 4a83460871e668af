/**
 * @file
 * The built-in litmus suite, unmutated: every program under several
 * seeds must complete, never hit its forbidden outcome, and produce a
 * trace the axiomatic checker accepts. Two independent oracles — the
 * outcome predicate and the trace replay — must both stay green. And
 * because the serial engine is the one-shard case of the sharded one,
 * both engines must take the same schedule for every program and seed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

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

/** The events recorded before the settled marker, as a sorted
 *  multiset (the engines record them in different orders). */
std::vector<TraceEvent>
preSettleEvents(const std::vector<TraceEvent> &trace)
{
    auto marker = std::find_if(
        trace.begin(), trace.end(), [](const TraceEvent &e) {
            return e.kind == TraceKind::Marker && e.value == markerSettled;
        });
    std::vector<TraceEvent> ev(trace.begin(), marker);
    auto key = [](const TraceEvent &e) {
        return std::tie(e.tick, e.kind, e.node, e.l1, e.aux, e.state,
                        e.size, e.src, e.addr, e.value, e.mask);
    };
    std::sort(ev.begin(), ev.end(),
              [&](const TraceEvent &a, const TraceEvent &b) {
                  return key(a) < key(b);
              });
    return ev;
}

class LitmusEngineTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(LitmusEngineTest, SerialAndShardedRunsTakeOneSchedule)
{
    // Same loads, same settled values, same events up to the settled
    // marker. The readback after the marker is driven differently by
    // design (stepped until each load completes when serial, drained
    // per load when sharded), so it is not compared.
    const LitmusProgram &prog = builtinLitmusPrograms()[GetParam()];
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        LitmusRunOptions opt;
        opt.seed = seed;
        LitmusResult serial = runLitmus(prog, opt);
        opt.parallel = true;
        LitmusResult sharded = runLitmus(prog, opt);
        EXPECT_EQ(serial.outcome.loads, sharded.outcome.loads)
            << prog.name << " seed " << seed;
        EXPECT_EQ(serial.outcome.final, sharded.outcome.final)
            << prog.name << " seed " << seed;
        EXPECT_TRUE(preSettleEvents(serial.trace) ==
                    preSettleEvents(sharded.trace))
            << prog.name << " seed " << seed
            << ": pre-settle trace events differ";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, LitmusEngineTest,
    ::testing::Range<std::size_t>(0, builtinLitmusPrograms().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        std::string name = builtinLitmusPrograms()[info.param].name;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

} // namespace
} // namespace piranha
