/**
 * @file
 * Shared helpers for the bench programs: the paper-figure work sizes,
 * strict parsing of numeric command-line values, the harness flags
 * both CLIs take and their SIGINT drain.
 */

#ifndef PIRANHA_BENCH_BENCH_UTIL_H
#define PIRANHA_BENCH_BENCH_UTIL_H

#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
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

/** The harness settings a bench command line fills in. */
struct BenchArgs
{
    SweepOptions opts;
    std::string jsonPath;
    /** A flag only the process tier reads was given. */
    bool processOnly = false;
};

/** parseBenchArgs's result when the program should go on and run. */
inline constexpr int kRunBench = -1;

/**
 * Parse a bench program's command line. The harness flags sweep_main
 * and campaign_main share (--threads N, --serial, --json FILE,
 * --timeout SEC, --exec thread|process, --journal DIR, --resume, and
 * the process-tier --grace SEC and --retries N) fill @p args; every
 * other argument goes to @p own with its index, which consumes it
 * (advancing the index past a value) and returns kRunBench, or returns
 * the program's exit code, its usage() for an argument it does not
 * take. A malformed value, and a process-tier flag without --exec
 * process, end in @p usage; --resume without --journal exits 2.
 * Returns kRunBench or the exit code.
 */
inline int
parseBenchArgs(int argc, char **argv, BenchArgs &args, int (*usage)(),
               const std::function<int(int &)> &own)
{
    SweepOptions &o = args.opts;
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        bool has_value = i + 1 < argc;
        bool ok = true;
        if (arg == "--threads" && has_value) {
            ok = parseNumber(argv[++i], o.threads);
        } else if (arg == "--serial") {
            o.threads = 1;
        } else if (arg == "--json" && has_value) {
            args.jsonPath = argv[++i];
        } else if (arg == "--timeout" && has_value) {
            ok = parseNumber(argv[++i], o.jobTimeoutSec);
        } else if (arg == "--exec" && has_value) {
            std::string_view e = argv[++i];
            ok = e == "process" || e == "thread";
            o.exec = e == "process" ? ExecTier::Process : ExecTier::Thread;
        } else if (arg == "--journal" && has_value) {
            o.journalDir = argv[++i];
        } else if (arg == "--resume") {
            o.resume = true;
        } else if (arg == "--grace" && has_value) {
            args.processOnly = true;
            ok = parseNumber(argv[++i], o.killGraceSec);
        } else if (arg == "--retries" && has_value) {
            args.processOnly = true;
            ok = parseNumber(argv[++i], o.maxAttempts);
        } else if (int rc = own(i); rc != kRunBench) {
            return rc;
        }
        if (!ok)
            return usage();
    }
    if (args.processOnly && o.exec != ExecTier::Process)
        return usage();
    if (o.resume && o.journalDir.empty()) {
        std::cerr << "--resume requires --journal DIR\n";
        return 2;
    }
    return kRunBench;
}

/**
 * Ctrl-C drains the sweeps run with @p opts: in-flight jobs finish,
 * queued ones are cancelled, and the partial report still lands.
 */
inline void
drainOnSigint(SweepOptions &opts)
{
    static std::atomic<bool> interrupted{false};
    std::signal(SIGINT, [](int) { interrupted.store(true); });
    opts.cancel = &interrupted;
}

} // namespace piranha

#endif // PIRANHA_BENCH_BENCH_UTIL_H
