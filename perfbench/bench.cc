#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <thread>

namespace perfbench {

Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
    if (n == 1) {
        s.q1 = s.q3 = v[0];
        return s;
    }
    // statistics.quantiles(method="exclusive"), n=4.
    auto quartile = [&](std::size_t i) {
        std::size_t m = n + 1;
        std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
        double delta = static_cast<double>(i * m) - 4.0 * j;
        return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace perfbench
