/**
 * @file
 * Generic set-associative tag array with pluggable replacement.
 *
 * Used by the L1 caches (64 KB, 2-way, LRU) and by each L2 bank
 * (128 KB, 8-way, round-robin / least-recently-loaded as in the
 * paper §2.3). The array stores caller-defined line payloads that
 * derive from TagLine.
 */

#ifndef PIRANHA_CACHE_TAG_ARRAY_H
#define PIRANHA_CACHE_TAG_ARRAY_H

#include <cstdint>
#include <vector>

#include "sim/logging.h"
#include "sim/types.h"

namespace piranha {

/** Base bookkeeping for one cache line slot. */
struct TagLine
{
    Addr addr = 0;          //!< line-aligned address
    bool valid = false;
    std::uint64_t lastUse = 0;  //!< for LRU
};

/** Replacement policies supported by TagArray. */
enum class ReplPolicy
{
    Lru,
    RoundRobin, //!< a.k.a. least-recently-loaded (paper's L2 policy)
};

/**
 * Set-associative array of LineT (derived from TagLine).
 *
 * The array does not move lines between ways; a line stays in its
 * slot from allocation to invalidation, so callers may hold LineT
 * pointers across simulated time (but not across allocate() calls for
 * the same set).
 */
template <typename LineT>
class TagArray
{
  public:
    /**
     * @param index_shift extra right-shift applied to the line number
     *        before set selection. Banked caches interleaved on the
     *        low line-address bits (the L2, paper §2.3) must strip
     *        those bits from the index or only 1/banks of each bank's
     *        sets would ever be used.
     */
    TagArray(std::size_t size_bytes, unsigned assoc, ReplPolicy policy,
             unsigned index_shift = 0)
        : _assoc(assoc), _policy(policy), _indexShift(index_shift)
    {
        if (assoc == 0 || size_bytes % (assoc * lineBytes) != 0)
            fatal("bad cache geometry: %zu bytes, %u-way", size_bytes,
                  assoc);
        _numSets = size_bytes / (assoc * lineBytes);
        if ((_numSets & (_numSets - 1)) != 0)
            fatal("cache set count %zu not a power of two", _numSets);
        _lines.resize(_numSets * assoc);
        _rrNext.resize(_numSets, 0);
    }

    std::size_t numSets() const { return _numSets; }
    unsigned assoc() const { return _assoc; }

    /** Set index of @p addr. */
    std::size_t
    setIndex(Addr addr) const
    {
        return (addr >> (lineShift + _indexShift)) & (_numSets - 1);
    }

    /** Find a valid line matching @p addr; nullptr on miss. */
    LineT *
    find(Addr addr)
    {
        Addr base = lineAlign(addr);
        std::size_t set = setIndex(addr);
        for (unsigned w = 0; w < _assoc; ++w) {
            LineT &l = _lines[set * _assoc + w];
            if (l.valid && l.addr == base)
                return &l;
        }
        return nullptr;
    }

    const LineT *
    find(Addr addr) const
    {
        return const_cast<TagArray *>(this)->find(addr);
    }

    /** Record a use of @p line for LRU. */
    void touch(LineT &line) { line.lastUse = ++_useClock; }

    /**
     * Choose the replacement victim in @p addr's set: an invalid way
     * if one exists, otherwise per policy. The returned line may be
     * valid; the caller must handle its eviction before reusing it.
     */
    LineT &
    victimFor(Addr addr)
    {
        std::size_t set = setIndex(addr);
        // Prefer an invalid way.
        for (unsigned w = 0; w < _assoc; ++w) {
            LineT &l = _lines[set * _assoc + w];
            if (!l.valid)
                return l;
        }
        if (_policy == ReplPolicy::RoundRobin) {
            unsigned w = _rrNext[set];
            _rrNext[set] = (w + 1) % _assoc;
            return _lines[set * _assoc + w];
        }
        // LRU.
        unsigned best = 0;
        for (unsigned w = 1; w < _assoc; ++w) {
            if (_lines[set * _assoc + w].lastUse <
                _lines[set * _assoc + best].lastUse) {
                best = w;
            }
        }
        return _lines[set * _assoc + best];
    }

    /**
     * Install @p addr into @p slot (as returned by victimFor). The
     * caller is responsible for having evicted the previous content.
     */
    void
    install(LineT &slot, Addr addr)
    {
        slot.addr = lineAlign(addr);
        slot.valid = true;
        touch(slot);
    }

    /** Invalidate one line. */
    void
    invalidate(LineT &line)
    {
        line.valid = false;
    }

    /** Count valid lines (test/statistics support; O(n)). */
    std::size_t
    validCount() const
    {
        std::size_t n = 0;
        for (const LineT &l : _lines)
            n += l.valid ? 1 : 0;
        return n;
    }

    /** Iterate over all slots (for invalidation sweeps in tests). */
    std::vector<LineT> &raw() { return _lines; }
    const std::vector<LineT> &raw() const { return _lines; }

  private:
    unsigned _assoc;
    ReplPolicy _policy;
    unsigned _indexShift = 0;
    std::size_t _numSets = 0;
    std::vector<LineT> _lines;
    std::vector<unsigned> _rrNext;
    std::uint64_t _useClock = 0;
};

} // namespace piranha

#endif // PIRANHA_CACHE_TAG_ARRAY_H
