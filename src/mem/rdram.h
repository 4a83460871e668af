/**
 * @file
 * Direct Rambus RDRAM channel timing model (paper §2.4).
 *
 * Each memory controller drives one Rambus channel of up to 32 RDRAM
 * devices at 1.6 GB/s. A random access takes 60 ns to the critical
 * word and 30 ns more for the rest of the cache line; a hit to an open
 * 512-byte page reduces the access latency to 40 ns. The controller's
 * main scheduling decision is which pages to keep open: a fully
 * populated chip has as many as 2K open pages, and the paper reports
 * that keeping pages open for about 1 microsecond yields over 50% hit
 * rates on OLTP.
 */

#ifndef PIRANHA_MEM_RDRAM_H
#define PIRANHA_MEM_RDRAM_H

#include <vector>

#include "sim/line_table.h"
#include "sim/types.h"
#include "stats/stats.h"

namespace piranha {

/** The page policy of one RDRAM channel. */
struct RdramParams
{
    double keepOpenNs = 1000.0;    //!< page keep-open window
    unsigned maxOpenPages = 2048;  //!< device row buffers available
};

/** One channel's open-page state and timing computation. */
class RdramChannel
{
  public:
    // Critical-word latency of a closed and an open page, the rest of
    // a 64-byte line, and the channel's occupancy per line (§2.4).
    static constexpr double randomAccessNs = 60.0;
    static constexpr double openPageNs = 40.0;
    static constexpr double restOfLineNs = 30.0;
    static constexpr double transferNs = 40.0;
    static constexpr unsigned pageShift = 9; //!< 512-byte device pages
    /**
     * log2 of the number of channels the line address interleaves
     * across (8 L2 banks/MCs per chip). Each channel owns every 8th
     * line, so a 512-byte device page corresponds to a 4 KB span of
     * the global address space; page locality must be computed on the
     * de-interleaved channel-local address.
     */
    static constexpr unsigned channelInterleaveLog2 = 3;

    explicit RdramChannel(const RdramParams &p = RdramParams{}) : _p(p) {}

    /**
     * Account one line access at @p now; returns the latency to the
     * critical word. Updates open-page state.
     */
    Tick
    access(Addr addr, Tick now)
    {
        Addr page = addr >> (pageShift + channelInterleaveLog2);
        std::uint32_t *slot = _idx.find(page);
        bool hit =
            slot && now - _pages[*slot].last <= nsToTicks(_p.keepOpenNs);
        if (hit) {
            ++statPageHits;
            _pages[*slot].last = now;
            moveToFront(*slot);
        } else {
            ++statPageMisses;
            if (slot) {
                // A stale entry for this very page: reopen in place.
                _pages[*slot].last = now;
                moveToFront(*slot);
            } else {
                if (_idx.size() >= _p.maxOpenPages)
                    evictLru();
                openPage(page, now);
            }
        }
        return nsToTicks(hit ? openPageNs : randomAccessNs);
    }

    /** Extra latency for the non-critical words of a line. */
    Tick restOfLine() const { return nsToTicks(restOfLineNs); }

    /** Channel occupancy of one line transfer. */
    Tick transferTime() const { return nsToTicks(transferNs); }

    const RdramParams &params() const { return _p; }

    Scalar statPageHits;
    Scalar statPageMisses;

  private:
    // Open pages live in a slot arena threaded onto an intrusive LRU
    // list. Because every access stamps `last = now` and moves its
    // page to the front, the list is ordered by last-access time, so
    // the tail is always the stalest page and capacity eviction is
    // O(1). Stale entries may linger until they reach the tail; they
    // can never produce a wrong hit (the keep-open window check) and
    // they are evicted ahead of any in-window page, so the hit/miss
    // stream is identical to eager purging.
    struct OpenPage
    {
        Addr page = 0;
        Tick last = 0;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    static constexpr std::uint32_t kNil = ~std::uint32_t(0);

    void
    unlink(std::uint32_t s)
    {
        OpenPage &p = _pages[s];
        if (p.prev != kNil)
            _pages[p.prev].next = p.next;
        else
            _head = p.next;
        if (p.next != kNil)
            _pages[p.next].prev = p.prev;
        else
            _tail = p.prev;
    }

    void
    pushFront(std::uint32_t s)
    {
        OpenPage &p = _pages[s];
        p.prev = kNil;
        p.next = _head;
        if (_head != kNil)
            _pages[_head].prev = s;
        else
            _tail = s;
        _head = s;
    }

    void
    moveToFront(std::uint32_t s)
    {
        if (_head == s)
            return;
        unlink(s);
        pushFront(s);
    }

    void
    openPage(Addr page, Tick now)
    {
        std::uint32_t s;
        if (!_freeSlots.empty()) {
            s = _freeSlots.back();
            _freeSlots.pop_back();
        } else {
            s = static_cast<std::uint32_t>(_pages.size());
            _pages.emplace_back();
        }
        _pages[s].page = page;
        _pages[s].last = now;
        _idx[page] = s;
        pushFront(s);
    }

    void
    evictLru()
    {
        std::uint32_t s = _tail;
        unlink(s);
        _idx.erase(_pages[s].page);
        _freeSlots.push_back(s);
    }

    RdramParams _p;
    LineTable<std::uint32_t> _idx; //!< page -> slot in _pages
    std::vector<OpenPage> _pages;
    std::vector<std::uint32_t> _freeSlots;
    std::uint32_t _head = kNil;
    std::uint32_t _tail = kNil;
};

} // namespace piranha

#endif // PIRANHA_MEM_RDRAM_H
