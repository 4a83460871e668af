/**
 * @file
 * Offline-checking contract: a trace captured in one process must
 * survive JSON serialization to disk and reload byte-for-byte, and
 * the checker must reach the same verdict on the reloaded events.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "check/checker.h"
#include "check/litmus.h"
#include "check/trace.h"

namespace piranha {
namespace {

TEST(TraceRoundtrip, JsonFileRoundtripPreservesEventsAndVerdict)
{
    // Produce a real multi-node trace with stores, fills, forwards
    // and invalidations in it.
    CoherenceTracer tracer(std::size_t(1) << 16);
    {
        const LitmusProgram &prog = builtinLitmusPrograms().front();
        LitmusRunOptions opt;
        opt.seed = 3;
        LitmusResult res = runLitmus(prog, opt);
        ASSERT_TRUE(res.completed);
        for (const TraceEvent &e : res.trace)
            tracer.record(e);
    }
    const std::vector<TraceEvent> before = tracer.events();
    ASSERT_GT(before.size(), 8u);

    // Dump to a file, re-read, re-parse.
    std::string path =
        ::testing::TempDir() + "/piranha_trace_roundtrip.json";
    {
        std::ofstream os(path);
        ASSERT_TRUE(os.good());
        tracer.toJson().write(os);
    }
    std::stringstream buf;
    {
        std::ifstream is(path);
        ASSERT_TRUE(is.good());
        buf << is.rdbuf();
    }
    JsonValue doc = parseJson(buf.str());
    EXPECT_EQ(std::uint64_t(doc.at("recorded").asNumber()),
              tracer.recorded());
    EXPECT_EQ(std::uint64_t(doc.at("dropped").asNumber()), 0u);

    std::vector<TraceEvent> after = CoherenceTracer::eventsFromJson(doc);
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i)
        ASSERT_EQ(after[i], before[i]) << "event " << i << " differs:\n"
                                       << renderTraceEvent(i, before[i])
                                       << "\n"
                                       << renderTraceEvent(i, after[i]);

    // The offline consumer reaches the same verdict.
    CheckReport orig = checkCoherence(before);
    CheckReport replay = checkCoherence(after);
    EXPECT_EQ(orig.ok(), replay.ok());
    EXPECT_EQ(orig.violations.size(), replay.violations.size());
    EXPECT_TRUE(replay.ok()) << replay.summary(after);
}

TEST(TraceRoundtrip, RingOverwriteReportsDroppedAndChecksTruncated)
{
    CoherenceTracer tracer(8);
    for (std::uint64_t i = 0; i < 20; ++i)
        tracer.init(0x1000 + 8 * i, 8, i);
    EXPECT_EQ(tracer.recorded(), 20u);
    EXPECT_EQ(tracer.dropped(), 12u);
    EXPECT_EQ(tracer.events().size(), 8u);
    // Oldest surviving event first.
    EXPECT_EQ(tracer.events().front().addr, 0x1000u + 8 * 12);

    CheckReport rep = checkCoherence(tracer.events(), tracer.dropped());
    EXPECT_TRUE(rep.truncated);
    EXPECT_FALSE(rep.ok());
}

} // namespace
} // namespace piranha
