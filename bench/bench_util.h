/**
 * @file
 * Shared helpers for the bench drivers: the paper-figure work sizes
 * and a fixed-work run of one configuration.
 */

#ifndef PIRANHA_BENCH_BENCH_UTIL_H
#define PIRANHA_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/piranha.h"
#include "stats/stats.h"

namespace piranha {

/** Total OLTP transactions per single-chip run (the paper measured
 *  500 after warm-up; we run more and let cold-start amortize). */
inline constexpr std::uint64_t kOltpTotalTxns = 1600;
/** Total DSS scan chunks per single-chip run. */
inline constexpr std::uint64_t kDssTotalChunks = 64;

/** Run @p cfg under @p wl with a fixed total amount of work. */
inline RunResult
runFixedWork(const SystemConfig &cfg, Workload &wl,
             std::uint64_t total_work)
{
    PiranhaSystem sys(cfg);
    std::uint64_t per_cpu =
        std::max<std::uint64_t>(1, total_work / sys.totalCpus());
    return sys.run(wl, per_cpu);
}

inline double
ms(Tick t)
{
    return static_cast<double>(t) * 1e-9;
}

} // namespace piranha

#endif // PIRANHA_BENCH_BENCH_UTIL_H
