/**
 * @file
 * Open-addressed hash tables keyed by cache-line number.
 *
 * The L2 banks and protocol engines keep per-line transient state
 * (duplicate-tag Info, TSRF indices, blocked-request queues,
 * write-back buffers) in std::unordered_map<Addr, V>. Those maps sit
 * on the per-message hot path, and the node-based unordered_map pays
 * an allocation plus two dependent loads per touch. LineTable is a
 * linear-probe open-addressed table with inline slots: one hash, one
 * (usually) cache-line probe, no allocation in steady state. Erasure
 * uses backward-shift deletion, so there are no tombstones and lookup
 * cost stays bounded by cluster length.
 *
 * Two variants:
 *  - LineTable<V>: key, occupancy flag and value share one slot in
 *    a single array. References are invalidated by rehash, which any
 *    operator[] call may trigger (even one that finds its key) —
 *    callers must not hold a value reference across one, same
 *    discipline unordered_map required across erase.
 *  - StableLineTable<V>: the slot array holds indices into a
 *    chunked SlabPool, so value pointers are stable across
 *    insert/erase for the value's whole lifetime. Used where the
 *    protocol code naturally holds an Info& across calls that may
 *    create state for other lines.
 *
 * Keys are line numbers (addr >> 6); any 64-bit key works. Occupancy
 * is tracked by a per-slot flag, so key 0 is a valid key.
 */

#ifndef PIRANHA_SIM_LINE_TABLE_H
#define PIRANHA_SIM_LINE_TABLE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace piranha {

namespace line_table_detail {

/** Fibonacci multiplicative hash: line numbers are near-sequential,
 *  so we need the high bits mixed before masking. */
inline std::size_t
mixHash(Addr k)
{
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull) >> 16);
}

} // namespace line_table_detail

/** Open-addressed map with inline values (see file comment). */
template <typename V>
class LineTable
{
  public:
    LineTable() = default;

    bool empty() const { return _size == 0; }
    std::size_t size() const { return _size; }

    V *
    find(Addr key)
    {
        if (_size == 0)
            return nullptr;
        Slot &s = _slots[probe(key)];
        return s.used ? &s.value : nullptr;
    }

    const V *
    find(Addr key) const
    {
        return const_cast<LineTable *>(this)->find(key);
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /**
     * Find-or-insert-default, like unordered_map::operator[]. The
     * growth check runs before the probe, so a lookup of a present
     * key can rehash too: growth points depend only on the sequence
     * of operator[] calls, not on which of them inserted.
     */
    V &
    operator[](Addr key)
    {
        maybeGrow();
        Slot &s = _slots[probe(key)];
        if (!s.used) {
            s.used = true;
            s.key = key;
            s.value = V{};
            ++_size;
        }
        return s.value;
    }

    /** Erase if present; returns true when an entry was removed. */
    bool
    erase(Addr key)
    {
        if (_size == 0)
            return false;
        std::size_t i = probe(key);
        if (!_slots[i].used)
            return false;
        eraseSlot(i);
        --_size;
        return true;
    }

    void
    clear()
    {
        for (Slot &s : _slots)
            s = Slot{};
        _size = 0;
    }

    /** Visit every (key, value&) in slot order: a deterministic
     *  function of the operator[] and erase history. */
    template <typename F>
    void
    forEach(F &&f)
    {
        for (Slot &s : _slots)
            if (s.used)
                f(s.key, s.value);
    }

    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const Slot &s : _slots)
            if (s.used)
                f(s.key, s.value);
    }

  private:
    /** Key, occupancy and value side by side: a probe that finds its
     *  key has the value on the same cache line. */
    struct Slot
    {
        Addr key = 0;
        bool used = false;
        V value{};
    };

    static constexpr std::size_t kMinCap = 16;

    /** Index of @p key's slot if present, else of the empty slot
     *  where it would be inserted. Requires capacity > size. */
    std::size_t
    probe(Addr key) const
    {
        std::size_t i = line_table_detail::mixHash(key) & _mask;
        while (_slots[i].used && _slots[i].key != key)
            i = (i + 1) & _mask;
        return i;
    }

    void
    maybeGrow()
    {
        if (_slots.empty()) {
            _slots.resize(kMinCap);
            _mask = kMinCap - 1;
            return;
        }
        // Rehash at 70% occupancy to bound cluster length.
        if ((_size + 1) * 10 < _slots.size() * 7)
            return;
        std::vector<Slot> old = std::move(_slots);
        _slots.clear();
        _slots.resize(old.size() * 2);
        _mask = _slots.size() - 1;
        for (Slot &s : old)
            if (s.used)
                _slots[probe(s.key)] = std::move(s);
    }

    /** Backward-shift deletion keeping probe chains intact. */
    void
    eraseSlot(std::size_t i)
    {
        std::size_t cap = _slots.size();
        std::size_t j = i;
        for (;;) {
            _slots[i] = Slot{};
            for (;;) {
                j = (j + 1) & _mask;
                if (!_slots[j].used)
                    return;
                std::size_t ideal =
                    line_table_detail::mixHash(_slots[j].key) & _mask;
                // Move j back into the hole when its probe distance
                // reaches past the hole.
                if (((j - ideal) & (cap - 1)) >= ((j - i) & (cap - 1))) {
                    _slots[i] = std::move(_slots[j]);
                    i = j;
                    break;
                }
            }
        }
    }

    std::vector<Slot> _slots;
    std::size_t _mask = 0;
    std::size_t _size = 0;
};

/**
 * Pool of pointer-stable values addressed by 32-bit index, with a
 * free list. Values live in fixed-size chunks, so a reference stays
 * valid while other slots are acquired or released, and values
 * allocated close in time share chunks. A released slot keeps its
 * value (and any capacity the value owns) until it is handed out
 * again; callers reset what they need.
 */
template <typename V>
class SlabPool
{
  public:
    /** Index of a free slot: the most recently released one, else a
     *  new default-constructed value. */
    std::uint32_t
    acquire()
    {
        if (!_free.empty()) {
            std::uint32_t slot = _free.back();
            _free.pop_back();
            return slot;
        }
        if (_size == _chunks.size() * kChunkSize)
            _chunks.push_back(std::make_unique<V[]>(kChunkSize));
        return static_cast<std::uint32_t>(_size++);
    }

    void release(std::uint32_t slot) { _free.push_back(slot); }

    V &
    operator[](std::uint32_t i)
    {
        return _chunks[i >> kChunkShift][i & (kChunkSize - 1)];
    }

    const V &
    operator[](std::uint32_t i) const
    {
        return _chunks[i >> kChunkShift][i & (kChunkSize - 1)];
    }

    /** Slots ever handed out, i.e. the peak number held at once. */
    std::size_t capacity() const { return _size; }
    std::size_t inUse() const { return _size - _free.size(); }

  private:
    static constexpr std::size_t kChunkShift = 4;
    static constexpr std::size_t kChunkSize = 1u << kChunkShift;

    std::vector<std::unique_ptr<V[]>> _chunks;
    std::size_t _size = 0;
    std::vector<std::uint32_t> _free;
};

/**
 * Open-addressed index over a SlabPool (see file comment).
 * find/operator[] return pointers/references that stay valid until
 * that key is erased, regardless of other inserts.
 */
template <typename V>
class StableLineTable
{
  public:
    bool empty() const { return _index.empty(); }
    std::size_t size() const { return _index.size(); }

    V *
    find(Addr key)
    {
        std::uint32_t *idx = _index.find(key);
        return idx ? &_slab[*idx] : nullptr;
    }

    const V *
    find(Addr key) const
    {
        return const_cast<StableLineTable *>(this)->find(key);
    }

    bool contains(Addr key) const { return _index.contains(key); }

    V &
    operator[](Addr key)
    {
        if (std::uint32_t *idx = _index.find(key))
            return _slab[*idx];
        // Slots are reset on erase, so a reused one is already V{}.
        std::uint32_t slot = _slab.acquire();
        _index[key] = slot;
        return _slab[slot];
    }

    bool
    erase(Addr key)
    {
        std::uint32_t *idx = _index.find(key);
        if (!idx)
            return false;
        std::uint32_t slot = *idx;
        _index.erase(key);
        _slab[slot] = V{};
        _slab.release(slot);
        return true;
    }

    template <typename F>
    void
    forEach(F &&f)
    {
        _index.forEach(
            [&](Addr key, std::uint32_t slot) { f(key, _slab[slot]); });
    }

    template <typename F>
    void
    forEach(F &&f) const
    {
        _index.forEach([&](Addr key, const std::uint32_t &slot) {
            f(key, _slab[slot]);
        });
    }

  private:
    LineTable<std::uint32_t> _index;
    SlabPool<V> _slab;
};

} // namespace piranha

#endif // PIRANHA_SIM_LINE_TABLE_H
