/**
 * @file
 * Functional memory contents for one node.
 *
 * The paper's workloads stress memory on purpose (a multi-hundred-
 * megabyte OLTP SGA, a 500 MB DSS scan table, §3), so the store spends
 * host memory only on what the simulation needs:
 *
 *  - a line index, a LineTable<uint32_t> (16 bytes per slot) holding
 *    every touched line: each line given contents, and each line a
 *    touch() call recorded. Its value is the line's slot in the slab
 *    plus one, or 0 for "touched, never written";
 *  - a SlabPool of materialized lines: those a data or directory
 *    write, a fault injection or a line() call has given contents.
 *    Each is the line's 64 data bytes plus the 44 directory bits that
 *    live in the freed ECC bits (paper §2.5.2).
 *
 * A read is a lookup, so a read-only scan (DSS Q6) costs no host
 * memory at all, and the slab grows without recopying lines. Only
 * fault-site selection (FaultInjector::pickLine) needs read history:
 * it draws from touchedLines() and walks forEachLine()'s slot order.
 * The injector therefore records each array read with touch(), and
 * only while a plan is armed.
 */

#ifndef PIRANHA_MEM_BACKING_STORE_H
#define PIRANHA_MEM_BACKING_STORE_H

#include <cstdint>

#include "mem/coherence_types.h"
#include "sim/line_table.h"
#include "sim/types.h"

namespace piranha {

/** Sparse line-granularity memory with in-ECC directory bits. */
class BackingStore
{
  public:
    struct Line
    {
        LineData data;
        std::uint64_t dirBits = 0;
    };

    /** Access the line containing @p addr, materializing it (zeroed)
     *  if it has no contents yet. The reference stays valid for the
     *  store's lifetime. */
    Line &
    line(Addr addr)
    {
        std::uint32_t &slot = _index[lineNum(addr)];
        if (slot == 0)
            slot = _slab.acquire() + 1;
        return _slab[slot - 1];
    }

    /**
     * Memory-array read: a lookup that leaves the index untouched. A
     * line never written reads as one shared zero line, so a caller
     * that may write the line copies first (MemCtrl copies into its
     * read snapshot).
     */
    const Line &
    read(Addr addr) const
    {
        const std::uint32_t *slot = _index.find(lineNum(addr));
        return slot && *slot ? _slab[*slot - 1] : kZeroLine;
    }

    /** Record @p addr's line as touched without materializing it: the
     *  index's operator[], with its growth check, and nothing else. */
    void touch(Addr addr) { _index[lineNum(addr)]; }

    /** Number of touched lines: written, or recorded by touch()
     *  (fault-site selection). */
    std::size_t touchedLines() const { return _index.size(); }

    /** Test support: number of lines holding contents. */
    std::size_t storedLines() const { return _slab.inUse(); }

    /**
     * Visit the address of every touched line. The order is the
     * index's slot order, a deterministic function of the line() and
     * touch() history, so fault-site selection driven by a seeded RNG
     * over this walk is reproducible run-to-run.
     */
    template <typename F>
    void
    forEachLine(F f) const
    {
        _index.forEach([&](Addr line_num, std::uint32_t) {
            f(static_cast<Addr>(line_num * lineBytes));
        });
    }

    /** Convenience for test setup: write a 64-bit word functionally. */
    void
    poke64(Addr addr, std::uint64_t value)
    {
        line(addr).data.write(static_cast<unsigned>(addr & (lineBytes - 1)),
                              8, value);
    }

    std::uint64_t
    peek64(Addr addr) const
    {
        return read(addr).data.read(
            static_cast<unsigned>(addr & (lineBytes - 1)), 8);
    }

  private:
    static const Line kZeroLine;

    LineTable<std::uint32_t> _index;
    SlabPool<Line> _slab;
};

inline const BackingStore::Line BackingStore::kZeroLine{};

} // namespace piranha

#endif // PIRANHA_MEM_BACKING_STORE_H
