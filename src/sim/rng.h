/**
 * @file
 * Deterministic pseudo-random number generation (PCG32).
 *
 * The simulator never uses std::rand or unseeded std::mt19937 so that
 * every run is exactly reproducible from its configuration. PCG32 is
 * small, fast and has good statistical quality for workload generation.
 */

#ifndef PIRANHA_SIM_RNG_H
#define PIRANHA_SIM_RNG_H

#include <cmath>
#include <cstdint>

namespace piranha {

/** Minimal PCG32 generator (O'Neill, pcg-random.org; public domain). */
class Pcg32
{
  public:
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        _state = 0;
        _inc = (stream << 1) | 1u;
        next();
        _state += seed;
        next();
    }

    /** Uniform 32-bit value. */
    std::uint32_t
    next()
    {
        std::uint64_t old = _state;
        _state = old * 6364136223846793005ULL + _inc;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31));
    }

    /** Uniform value in [0, bound); bound == 0 returns 0. */
    std::uint32_t
    below(std::uint32_t bound)
    {
        if (bound == 0)
            return 0;
        // Debiased modulo via rejection sampling.
        std::uint32_t threshold = (-bound) % bound;
        for (;;) {
            std::uint32_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform 64-bit value. */
    std::uint64_t
    next64()
    {
        return (static_cast<std::uint64_t>(next()) << 32) | next();
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return next() * (1.0 / 4294967296.0);
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Geometric-ish positive integer with mean approximately @p mean,
     * used for think times and burst lengths: the number of
     * chance(1 / mean) trials up to and including the first success,
     * capped at 64 * mean trials.
     *
     * uniform() < p is decided on the raw draw: r * 2^-32 < p holds
     * exactly when r < ceil(p * 2^32) (both products are exact), and
     * an integer n is below 64 * mean exactly when it is below
     * ceil(64 * mean). So the outputs and the generator state match
     * the plain chance() loop.
     */
    std::uint32_t
    geometric(double mean)
    {
        if (mean <= 1.0)
            return 1;
        double p = 1.0 / mean;
        auto hit_below = static_cast<std::uint64_t>(
            std::ceil(p * 4294967296.0));
        auto cap = static_cast<std::uint64_t>(std::ceil(64 * mean));
        std::uint32_t n = 1;
        while (next() >= hit_below && n < cap)
            ++n;
        return n;
    }

  private:
    std::uint64_t _state;
    std::uint64_t _inc;
};

} // namespace piranha

#endif // PIRANHA_SIM_RNG_H
