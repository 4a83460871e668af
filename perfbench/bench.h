/**
 * @file
 * Shared types of the simulator benchmark: host clock, named metric
 * values, sample summaries and the stat-tree digest.
 */

#ifndef PIRANHA_PERFBENCH_BENCH_H
#define PIRANHA_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

/** One reported metric: name, value and unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * Median and quartiles of a sample set. The quartiles follow Python's
 * statistics.quantiles(values, n=4) (the "exclusive" method), so the
 * spread printed here is the one a reader recomputes from the values.
 */
struct Summary
{
    double median = 0;
    double q1 = 0;
    double q3 = 0;
    std::size_t n = 0;

    /** Interquartile range as a share of the median. */
    double
    spread() const
    {
        return median != 0 ? (q3 - q1) / median : 0;
    }
};

Summary summarize(std::vector<double> values);

/** 64-bit FNV-1a hash, printed as 16 hex digits. */
std::uint64_t fnv1a(std::string_view bytes);
std::string hex64(std::uint64_t v);

/** Peak resident set size of this process in MB. */
double peakRssMb();

/** User plus system CPU seconds of this process, all threads. */
double processCpuSeconds();

/** CPUs this process may run on (sched_getaffinity, as nproc). */
unsigned hostCpus();

} // namespace perfbench

#endif // PIRANHA_PERFBENCH_BENCH_H
