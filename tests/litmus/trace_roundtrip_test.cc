/**
 * @file
 * Trace ring bookkeeping: when the ring overwrites, the tracer reports
 * the dropped count and the checker refuses to vouch for the
 * truncated trace.
 */

#include <gtest/gtest.h>

#include "check/checker.h"
#include "check/trace.h"

namespace piranha {
namespace {

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
