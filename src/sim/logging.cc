#include "sim/logging.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace piranha {

std::string
strVFormat(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

std::string
strFormat(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = strVFormat(fmt, ap);
    va_end(ap);
    return s;
}

namespace {
thread_local bool panic_throws = false;
} // namespace

bool
setPanicThrows(bool enabled)
{
    bool prev = panic_throws;
    panic_throws = enabled;
    return prev;
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = strVFormat(fmt, ap);
    va_end(ap);
    if (panic_throws)
        throw SimError("panic: " + s);
    std::fprintf(stderr, "panic: %s\n", s.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = strVFormat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s\n", s.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = strVFormat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", s.c_str());
}

void
inform(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = strVFormat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "info: %s\n", s.c_str());
}

} // namespace piranha
