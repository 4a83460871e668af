/**
 * @file
 * Shared helpers for the bench programs: the paper-figure work sizes
 * and strict parsing of numeric command-line values.
 */

#ifndef PIRANHA_BENCH_BENCH_UTIL_H
#define PIRANHA_BENCH_BENCH_UTIL_H

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/piranha.h"
#include "stats/stats.h"

namespace piranha {

/** Total OLTP transactions per single-chip run (the paper measured
 *  500 after warm-up; we run more and let cold-start amortize). */
inline constexpr std::uint64_t kOltpTotalTxns = 1600;
/** Total DSS scan chunks per single-chip run. */
inline constexpr std::uint64_t kDssTotalChunks = 64;

/**
 * Parse a numeric flag value strictly: all of @p s must be one number
 * of type @p T, with no sign, space or trailing text. An unsigned @p T
 * takes a non-negative integer that fits it (counts); a floating @p T
 * takes a finite value >= 0 (seconds). On failure @p out is left
 * unchanged and false is returned.
 */
template <typename T>
bool
parseNumber(std::string_view s, T &out)
{
    static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
    T v{};
    auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (s.empty() || ec != std::errc() || end != s.data() + s.size())
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v) || v < 0)
            return false;
    }
    out = v;
    return true;
}

} // namespace piranha

#endif // PIRANHA_BENCH_BENCH_UTIL_H
