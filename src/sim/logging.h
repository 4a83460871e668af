/**
 * @file
 * Error and status reporting helpers, following the gem5 conventions:
 *
 *  - panic(): an internal simulator invariant was violated (a bug in the
 *    simulator itself). Aborts so a debugger/core dump is available.
 *  - fatal(): the simulation cannot continue because of a user error
 *    (bad configuration, invalid arguments). Exits with status 1.
 *  - warn()/inform(): status messages that never stop the simulation.
 */

#ifndef PIRANHA_SIM_LOGGING_H
#define PIRANHA_SIM_LOGGING_H

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace piranha {

/**
 * Thrown by panic() instead of aborting when panic-throws mode is
 * enabled on the current thread (setPanicThrows). Campaign and sweep
 * jobs run whole simulations that injected faults can drive into
 * states the protocol treats as impossible; those must surface as an
 * isolated failed job, not kill the host process.
 */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Per-thread switch: when true, panic() throws SimError instead of
 * aborting. Returns the previous value so callers can restore it.
 */
bool setPanicThrows(bool enabled);

/** RAII guard enabling panic-throws for a scope. */
class PanicThrowsGuard
{
  public:
    PanicThrowsGuard() : _prev(setPanicThrows(true)) {}
    ~PanicThrowsGuard() { setPanicThrows(_prev); }
    PanicThrowsGuard(const PanicThrowsGuard &) = delete;
    PanicThrowsGuard &operator=(const PanicThrowsGuard &) = delete;

  private:
    bool _prev;
};

/** Abort with a formatted message; use for simulator bugs. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit(1) with a formatted message; use for user/config errors. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message to stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string strFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf-style formatting into a std::string. */
std::string strVFormat(const char *fmt, va_list ap);

} // namespace piranha

#endif // PIRANHA_SIM_LOGGING_H
