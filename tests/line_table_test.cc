/**
 * @file
 * LineTable / StableLineTable / SlabPool (src/sim/line_table.h):
 * differential tests against std::unordered_map (with plain and with
 * heap-owning values), probe chains under colliding keys through
 * backward-shift deletion and rehash, and the pointer stability the
 * L2 bank relies on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/line_table.h"
#include "sim/rng.h"

namespace piranha {
namespace {

/** Every key of @p ref is in @p t with the same value, and forEach
 *  visits exactly the keys of @p ref, once each. */
template <typename Table, typename V>
void
expectSameContents(Table &t, const std::unordered_map<Addr, V> &ref)
{
    ASSERT_EQ(t.size(), ref.size());
    EXPECT_EQ(t.empty(), ref.empty());
    for (const auto &[k, v] : ref) {
        const V *got = t.find(k);
        ASSERT_NE(got, nullptr) << "key " << k;
        EXPECT_EQ(*got, v) << "key " << k;
    }
    std::unordered_map<Addr, V> seen;
    t.forEach([&](Addr k, const V &v) {
        EXPECT_TRUE(seen.emplace(k, v).second) << "key " << k << " twice";
    });
    EXPECT_EQ(seen, ref);
}

/** A table value derived from random draw @p r. */
template <typename V>
V valueFor(std::uint64_t r);

template <>
std::uint64_t
valueFor<std::uint64_t>(std::uint64_t r)
{
    return r;
}

/** A value that owns heap memory of varying length: a slot moved in
 *  rehash or backward-shift deletion must carry its buffer along. */
template <>
std::vector<std::uint64_t>
valueFor<std::vector<std::uint64_t>>(std::uint64_t r)
{
    return std::vector<std::uint64_t>(1 + r % 9, r);
}

/** @p n distinct keys, 0 first, whose hashes share their low
 *  @p bits bits: they collide at every capacity up to 2^bits. */
std::vector<Addr>
collidingKeys(std::size_t n, unsigned bits)
{
    std::size_t mask = (std::size_t{1} << bits) - 1;
    std::size_t want = line_table_detail::mixHash(0) & mask;
    std::vector<Addr> keys;
    for (Addr k = 0; keys.size() < n; ++k)
        if ((line_table_detail::mixHash(k) & mask) == want)
            keys.push_back(k);
    return keys;
}

/** Random ops on @p Table<V> against an unordered_map; keys are
 *  drawn from a small range (with key 0 included) so erases and
 *  re-inserts of the same key are common. */
template <template <typename> class Table, typename V = std::uint64_t>
void
randomDifferential(std::uint64_t seed)
{
    Table<V> t;
    std::unordered_map<Addr, V> ref;
    Pcg32 rng(seed);
    for (int step = 0; step < 20000; ++step) {
        Addr k = rng.below(600);
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2: { // insert-or-assign through operator[]
            V v = valueFor<V>(rng.next64());
            t[k] = v;
            ref[k] = v;
            break;
          }
          case 3:
          case 4:
            EXPECT_EQ(t.erase(k), ref.erase(k) == 1) << "key " << k;
            break;
          case 5: { // find-or-insert leaves existing values alone
            V &v = t[k];
            auto [it, fresh] = ref.try_emplace(k);
            EXPECT_EQ(v, it->second) << "key " << k;
            if (fresh) {
                EXPECT_EQ(v, V{}) << "key " << k;
            }
            break;
          }
          default: {
            const V *got = t.find(k);
            auto it = ref.find(k);
            ASSERT_EQ(got != nullptr, it != ref.end()) << "key " << k;
            if (got) {
                EXPECT_EQ(*got, it->second) << "key " << k;
            }
            EXPECT_EQ(t.contains(k), got != nullptr);
            break;
          }
        }
        if (step % 2500 == 0)
            expectSameContents(t, ref);
    }
    expectSameContents(t, ref);
}

TEST(LineTable, RandomOpsMatchUnorderedMap)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull})
        randomDifferential<LineTable>(seed);
}

TEST(LineTable, RandomOpsWithHeapOwningValuesMatchUnorderedMap)
{
    // Values that own heap memory, as the protocol engine's
    // LineTable<RingBuffer<QMsg>> does: run under ASan this catches a
    // slot that is copied bitwise, leaked or reset too late.
    for (std::uint64_t seed : {6ull, 7ull})
        randomDifferential<LineTable, std::vector<std::uint64_t>>(seed);
}

TEST(StableLineTable, RandomOpsMatchUnorderedMap)
{
    for (std::uint64_t seed : {4ull, 5ull})
        randomDifferential<StableLineTable>(seed);
}

TEST(LineTable, ClearEmptiesAndTableIsReusable)
{
    LineTable<std::uint64_t> t;
    std::unordered_map<Addr, std::uint64_t> ref;
    Pcg32 rng(11);
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 300; ++i) {
            Addr k = rng.below(1000);
            t[k] = k * 3 + 1;
            ref[k] = k * 3 + 1;
        }
        expectSameContents(t, ref);
        t.clear();
        ref.clear();
        expectSameContents(t, ref);
        EXPECT_EQ(t.find(0), nullptr);
        // Cleared slots come back default-valued.
        EXPECT_EQ(t[5], 0u);
        t.erase(5);
    }
}

TEST(LineTable, KeyZeroIsAnOrdinaryKey)
{
    LineTable<std::uint64_t> t;
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_FALSE(t.erase(0));
    t[0] = 42;
    ASSERT_NE(t.find(0), nullptr);
    EXPECT_EQ(*t.find(0), 42u);
    t[1] = 7;
    EXPECT_TRUE(t.erase(0));
    EXPECT_EQ(t.find(0), nullptr);
    ASSERT_NE(t.find(1), nullptr);
    EXPECT_EQ(*t.find(1), 7u);
    EXPECT_EQ(t.size(), 1u);

    StableLineTable<std::uint64_t> s;
    s[0] = 9;
    ASSERT_NE(s.find(0), nullptr);
    EXPECT_EQ(*s.find(0), 9u);
    EXPECT_TRUE(s.erase(0));
    EXPECT_FALSE(s.contains(0));
}

TEST(LineTable, CollidingKeysSurviveBackwardShiftDeletion)
{
    // Ten keys on one home slot fill a 16-slot table to just under
    // its growth threshold, as one probe cluster.
    std::vector<Addr> keys = collidingKeys(10, 4);
    ASSERT_EQ(keys.front(), 0u);
    LineTable<std::uint64_t> t;
    std::unordered_map<Addr, std::uint64_t> ref;
    for (Addr k : keys) {
        t[k] = k + 100;
        ref[k] = k + 100;
    }
    expectSameContents(t, ref);
    // Erase from the middle, the head and the tail of the cluster;
    // every survivor must stay reachable from its home slot.
    for (std::size_t i : {4u, 0u, 9u, 5u, 1u}) {
        EXPECT_TRUE(t.erase(keys[i]));
        ref.erase(keys[i]);
        EXPECT_FALSE(t.erase(keys[i]));
        expectSameContents(t, ref);
    }
    // Re-insert into the holes.
    for (std::size_t i : {0u, 5u}) {
        t[keys[i]] = 1;
        ref[keys[i]] = 1;
    }
    expectSameContents(t, ref);
}

TEST(LineTable, CollidingKeysSurviveRehash)
{
    // Keys colliding at every capacity up to 256 slots: the cluster
    // moves as a whole through several doublings.
    std::vector<Addr> keys = collidingKeys(120, 8);
    LineTable<std::uint64_t> t;
    std::unordered_map<Addr, std::uint64_t> ref;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        t[keys[i]] = i;
        ref[keys[i]] = i;
        if (i % 3 == 2) { // interleave deletions with growth
            t.erase(keys[i - 1]);
            ref.erase(keys[i - 1]);
        }
        if (i % 10 == 0)
            expectSameContents(t, ref);
    }
    expectSameContents(t, ref);
    for (std::size_t i = 0; i < keys.size(); i += 2) {
        t.erase(keys[i]);
        ref.erase(keys[i]);
    }
    expectSameContents(t, ref);
}

TEST(StableLineTable, PointersSurviveOtherInsertsAndErases)
{
    StableLineTable<std::uint64_t> t;
    std::vector<Addr> held = {0, 17, 4096, 123456789};
    std::vector<std::uint64_t *> ptrs;
    for (Addr k : held) {
        std::uint64_t &v = t[k];
        v = k ^ 0xabcdef;
        ptrs.push_back(&v);
    }
    // Thousands of other keys: the index rehashes many times and the
    // slab grows by many chunks; erasing half of them frees slots that
    // later inserts reuse.
    Pcg32 rng(3);
    std::vector<Addr> others;
    for (int i = 0; i < 5000; ++i) {
        Addr k = 1000000 + rng.below(50000);
        t[k] = k;
        others.push_back(k);
        if (i % 2)
            t.erase(others[rng.below(static_cast<std::uint32_t>(
                others.size()))]);
    }
    for (std::size_t i = 0; i < held.size(); ++i) {
        EXPECT_EQ(t.find(held[i]), ptrs[i]) << "key " << held[i];
        EXPECT_EQ(*ptrs[i], held[i] ^ 0xabcdef) << "key " << held[i];
        EXPECT_EQ(&t[held[i]], ptrs[i]) << "key " << held[i];
    }
    // An erased key comes back default-valued, whatever slot it gets.
    EXPECT_TRUE(t.erase(held[1]));
    EXPECT_EQ(t[held[1]], 0u);
}

TEST(SlabPool, ReusesReleasedSlotsLastInFirstOut)
{
    SlabPool<std::uint64_t> pool;
    std::vector<std::uint32_t> slots;
    std::vector<std::uint64_t *> ptrs;
    for (std::uint32_t i = 0; i < 40; ++i) {
        slots.push_back(pool.acquire());
        EXPECT_EQ(slots.back(), i);
        EXPECT_EQ(pool[slots.back()], 0u);
        pool[slots.back()] = i + 1;
        ptrs.push_back(&pool[slots.back()]);
    }
    EXPECT_EQ(pool.capacity(), 40u);
    EXPECT_EQ(pool.inUse(), 40u);
    pool.release(7);
    pool.release(30);
    EXPECT_EQ(pool.inUse(), 38u);
    EXPECT_EQ(pool.acquire(), 30u);
    // A reacquired slot keeps the value its last holder left.
    EXPECT_EQ(pool[7], 8u);
    EXPECT_EQ(pool.acquire(), 7u);
    EXPECT_EQ(pool.acquire(), 40u);
    EXPECT_EQ(pool.capacity(), 41u);
    for (std::uint32_t i = 0; i < 40; ++i)
        EXPECT_EQ(&pool[i], ptrs[i]) << "slot " << i;
}

} // namespace
} // namespace piranha
