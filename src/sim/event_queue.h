/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives an entire simulated system. Events
 * scheduled for the same tick execute in FIFO order of their
 * scheduling (a monotonically increasing sequence number breaks
 * ties), which keeps simulations fully deterministic regardless of
 * container behaviour. Simulated time never moves backwards, even
 * across run(limit)/step() boundaries.
 *
 * Storage is hybrid (see DESIGN.md "Event kernel"):
 *
 *  - Near future: a power-of-two timing wheel of kNumBuckets buckets,
 *    each spanning 2^kBucketShift ticks (512 ps, about one tick of
 *    the 500-ps interconnect grid). The deltas that dominate
 *    simulation land here; insertion is an O(1) bitmap update plus a
 *    tail-backward walk of a sorted intrusive list, which for a
 *    normal-band event finds the tail already in order.
 *  - Far future (beyond the wheel horizon): a binary min-heap of
 *    (when, seq, Event*) entries. Descheduling leaves a stale heap
 *    entry behind; entries are validated lazily against the event's
 *    current sequence number when they surface at the top.
 *
 * Because every bucket holds at most one "lap" of the wheel (an event
 * enters the wheel only when its bucket distance is below
 * kNumBuckets), scanning buckets in circular order from the current
 * tick's bucket visits events in nondecreasing tick order; merging
 * that stream with the heap top by (when, seq) reproduces the exact
 * total order of a single priority queue.
 */

#ifndef PIRANHA_SIM_EVENT_QUEUE_H
#define PIRANHA_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event.h"
#include "sim/logging.h"
#include "sim/types.h"

namespace piranha {

/** Callable executed when simulated time reaches its scheduled tick. */
using EventFn = std::function<void()>;

class EventQueue;

/**
 * Pooled event backing the closure-scheduling compatibility API.
 * Hot paths should own intrusive events instead; the pooled shim
 * still avoids a queue-side allocation per event, but a closure whose
 * captures exceed the std::function small-buffer does its own.
 */
class LambdaEvent final : public Event
{
    friend class EventQueue;

  public:
    void process() override;
    const char *eventName() const override { return "lambda"; }

  private:
    EventQueue *_owner = nullptr;
    EventFn _fn;
};

/** Deterministic single-threaded event queue. */
class EventQueue
{
    friend class Event;
    friend class LambdaEvent;

  public:
    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /** Schedule @p ev at absolute tick @p when (>= curTick()). */
    void
    schedule(Event &ev, Tick when)
    {
        scheduleWithSeq(ev, when, _nextSeq++);
    }

    /**
     * Schedule @p ev at @p when ahead of every normally-scheduled
     * event of the same tick: priority sequence numbers come from a
     * band below the normal one, so at equal ticks a priority event
     * always sorts first regardless of when it was scheduled. Used by
     * the network fabric's canonical delivery flushes (DESIGN.md §13)
     * so cross-chip arrivals at tick T execute before any local event
     * of tick T in both the serial and the parallel engine.
     */
    void
    schedulePriority(Event &ev, Tick when)
    {
        if (_nextPrioSeq >= kNormalSeqBase)
            panic("priority sequence band exhausted");
        scheduleWithSeq(ev, when, _nextPrioSeq++);
    }

    /** Schedule @p ev to fire @p delta ticks from now. */
    void scheduleIn(Event &ev, Tick delta) { schedule(ev, _curTick + delta); }

    /** Remove a pending @p ev without executing it. */
    void
    deschedule(Event &ev)
    {
        if (!ev._sched)
            panic("deschedule of idle event %s", ev.eventName());
        if (ev._eq != this)
            panic("deschedule of foreign event %s", ev.eventName());
        ev._sched = false;
        --_numPending;
        if (ev._inWheel)
            unlinkWheel(ev);
        // Heap-resident events leave a stale entry; it is dropped when
        // it surfaces (the event's seq will no longer match).
    }

    /** Move @p ev to @p when, whether or not it is pending. */
    void
    reschedule(Event &ev, Tick when)
    {
        if (ev._sched)
            deschedule(ev);
        schedule(ev, when);
    }

    /** Schedule closure @p fn at absolute tick @p when (cold paths). */
    void
    schedule(Tick when, EventFn fn)
    {
        LambdaEvent *ev = acquireLambda();
        ev->_fn = std::move(fn);
        schedule(*ev, when);
    }

    /** Schedule closure @p fn to run @p delta ticks from now. */
    void
    scheduleIn(Tick delta, EventFn fn)
    {
        schedule(_curTick + delta, std::move(fn));
    }

    /** Number of events not yet executed. */
    size_t pending() const { return _numPending; }

    /**
     * Run until the queue drains or the next event lies beyond
     * @p limit. Time advances to min(limit, next event) but never
     * backwards: a limit earlier than curTick() executes nothing.
     * @return true if the queue drained, false if the limit stopped it.
     */
    bool
    run(Tick limit = ~Tick(0))
    {
        for (;;) {
            Event *ev = peekNext();
            if (!ev)
                return true;
            if (ev->_when > limit) {
                if (limit > _curTick)
                    _curTick = limit;
                return false;
            }
            execute(ev);
        }
    }

    /** Execute at most one event; @return false if queue was empty. */
    bool
    step()
    {
        Event *ev = peekNext();
        if (!ev)
            return false;
        execute(ev);
        return true;
    }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /** Tick of the next pending event (~Tick(0) when empty). */
    Tick
    nextEventTick()
    {
        Event *n = peekNext();
        return n ? n->_when : ~Tick(0);
    }

    /**
     * True when no pending event fires at or before @p t — i.e. the
     * interval (curTick, t] is free of scheduled work. Used by the
     * zero-event L1-hit fast path to prove that completing an access
     * inline (and advancing the clock) cannot reorder against any
     * other component's events.
     *
     * Under the parallel engine the proof additionally requires @p t
     * to lie inside the current epoch: beyond the horizon other
     * shards may still post work into this tick range, so the quiet
     * claim cannot be made and the fast path falls back to its
     * evented tier (which is bit-identical, see DESIGN.md §8).
     */
    bool
    quietThrough(Tick t)
    {
        if (t > _horizon)
            return false;
        if (_numPending == 0)
            return true;
        Event *n = peekNext();
        return !n || n->_when > t;
    }

    /**
     * Bound the quietThrough proof to ticks <= @p t (the last tick of
     * the current epoch). ~Tick(0) (the default) removes the bound.
     */
    void setHorizon(Tick t) { _horizon = t; }
    Tick horizon() const { return _horizon; }

    /**
     * Advance curTick to @p t without executing anything. Only legal
     * when every pending event fires at or after @p t (events AT @p t
     * must be ones the caller scheduled after checking quietThrough
     * and that logically follow its inline work, e.g. a store-buffer
     * drain behind an inline-completed store). The wheel needs no
     * cursor fix-up: wheelFront derives its scan origin from curTick.
     */
    void
    advanceTo(Tick t)
    {
        if (t > _curTick)
            _curTick = t;
    }

    /**
     * Wheel geometry: kNumBuckets buckets of 2^kBucketShift ticks
     * cover a horizon of 2^19 ticks (~524 ns) ahead of curTick; an
     * event further out goes to the far heap. A bucket is 512 ticks,
     * just over one 500-ps interconnect cycle, so it seldom holds two
     * distinct ticks and a normal-band insert (the largest seq yet)
     * files at the bucket tail without walking (DESIGN.md §7).
     */
    static constexpr unsigned kBucketShift = 9;
    static constexpr std::size_t kNumBuckets = 1024;

  private:
    static constexpr std::size_t kOccWords = kNumBuckets / 64;

    // Sequence bands: normal events draw from [kNormalSeqBase, 2^64),
    // priority events from [0, kNormalSeqBase). Both bands are
    // monotone, so FIFO order within a band is preserved and a
    // priority event beats every normal event of the same tick.
    static constexpr std::uint64_t kNormalSeqBase = std::uint64_t(1)
                                                    << 62;

    void
    scheduleWithSeq(Event &ev, Tick when, std::uint64_t seq)
    {
        if (when < _curTick)
            panic("event %s scheduled in the past (%llu < %llu)",
                  ev.eventName(), (unsigned long long)when,
                  (unsigned long long)_curTick);
        if (ev._sched)
            panic("event %s is already scheduled", ev.eventName());
        ev._eq = this;
        ev._when = when;
        ev._seq = seq;
        ev._sched = true;
        ++_numPending;
        std::uint64_t blk = when >> kBucketShift;
        if (blk - (_curTick >> kBucketShift) < kNumBuckets)
            insertWheel(ev, blk);
        else
            insertHeap(ev);
    }

    struct HeapEnt
    {
        Tick when;
        std::uint64_t seq;
        Event *ev;
    };

    /** Max-heap comparator that surfaces the earliest (when, seq). */
    struct HeapLater
    {
        bool
        operator()(const HeapEnt &a, const HeapEnt &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    void
    insertWheel(Event &ev, std::uint64_t blk)
    {
        ev._inWheel = true;
        std::size_t b = static_cast<std::size_t>(blk) & (kNumBuckets - 1);
        Event *at = _bucketTail[b];
        // Sorted insert from the tail by (when, seq): deltas are
        // nondecreasing in practice, so this is O(1). Normal events at
        // equal ticks file after existing entries (the new event has
        // the larger seq); a priority-band event walks past same-tick
        // normal entries to file ahead of them.
        while (at && (at->_when > ev._when ||
                      (at->_when == ev._when && at->_seq > ev._seq)))
            at = at->_prev;
        if (!at) {
            ev._prev = nullptr;
            ev._next = _bucketHead[b];
            if (ev._next)
                ev._next->_prev = &ev;
            else
                _bucketTail[b] = &ev;
            _bucketHead[b] = &ev;
        } else {
            ev._prev = at;
            ev._next = at->_next;
            at->_next = &ev;
            if (ev._next)
                ev._next->_prev = &ev;
            else
                _bucketTail[b] = &ev;
        }
        _occ[b >> 6] |= 1ull << (b & 63);
        ++_wheelCount;
    }

    void
    unlinkWheel(Event &ev)
    {
        std::size_t b =
            static_cast<std::size_t>(ev._when >> kBucketShift) &
            (kNumBuckets - 1);
        if (ev._prev)
            ev._prev->_next = ev._next;
        else
            _bucketHead[b] = ev._next;
        if (ev._next)
            ev._next->_prev = ev._prev;
        else
            _bucketTail[b] = ev._prev;
        ev._prev = ev._next = nullptr;
        ev._inWheel = false;
        if (!_bucketHead[b])
            _occ[b >> 6] &= ~(1ull << (b & 63));
        --_wheelCount;
    }

    void
    insertHeap(Event &ev)
    {
        ev._inWheel = false;
        ++ev._heapRefs;
        _heap.push_back(HeapEnt{ev._when, ev._seq, &ev});
        std::push_heap(_heap.begin(), _heap.end(), HeapLater{});
    }

    /** Earliest wheel event, or nullptr when the wheel is empty. */
    Event *
    wheelFront() const
    {
        if (_wheelCount == 0)
            return nullptr;
        std::size_t pos = static_cast<std::size_t>(
                              _curTick >> kBucketShift) &
                          (kNumBuckets - 1);
        std::size_t word = pos >> 6;
        std::uint64_t w = _occ[word] & (~std::uint64_t(0) << (pos & 63));
        for (std::size_t i = 0; i <= kOccWords; ++i) {
            if (w) {
                std::size_t b = ((word << 6) +
                                 static_cast<std::size_t>(
                                     std::countr_zero(w))) &
                                (kNumBuckets - 1);
                return _bucketHead[b];
            }
            word = (word + 1) & (kOccWords - 1);
            w = _occ[word];
        }
        panic("wheel count %zu but no occupied bucket", _wheelCount);
    }

    /** Earliest live heap event (drops stale entries), or nullptr. */
    Event *
    heapFront()
    {
        while (!_heap.empty()) {
            const HeapEnt &top = _heap.front();
            Event *ev = top.ev;
            if (ev && ev->_sched && !ev->_inWheel && ev->_seq == top.seq)
                return ev;
            if (ev)
                --ev->_heapRefs;
            std::pop_heap(_heap.begin(), _heap.end(), HeapLater{});
            _heap.pop_back();
        }
        return nullptr;
    }

    /** Next event in (when, seq) order, or nullptr when empty. */
    Event *
    peekNext()
    {
        Event *h = heapFront();
        Event *w = wheelFront();
        if (!w)
            return h;
        if (!h)
            return w;
        if (h->_when != w->_when)
            return h->_when < w->_when ? h : w;
        return h->_seq < w->_seq ? h : w;
    }

    /** Pop @p ev (the current peekNext()) and run it. */
    void
    execute(Event *ev)
    {
        if (ev->_inWheel) {
            unlinkWheel(*ev);
        } else {
            // A live heap event surfaces only as the heap top.
            --ev->_heapRefs;
            std::pop_heap(_heap.begin(), _heap.end(), HeapLater{});
            _heap.pop_back();
        }
        ev->_sched = false;
        --_numPending;
        if (ev->_when > _curTick)
            _curTick = ev->_when;
        ++_executed;
        ev->process();
    }

    LambdaEvent *acquireLambda();
    void releaseLambda(LambdaEvent *ev);
    void purgeHeapRefs(Event *ev);

    Tick _curTick = 0;
    Tick _horizon = ~Tick(0);
    std::uint64_t _nextSeq = kNormalSeqBase;
    std::uint64_t _nextPrioSeq = 0;
    std::uint64_t _executed = 0;
    std::size_t _numPending = 0;
    std::size_t _wheelCount = 0;
    Event *_bucketHead[kNumBuckets] = {};
    Event *_bucketTail[kNumBuckets] = {};
    std::uint64_t _occ[kOccWords] = {};
    std::vector<HeapEnt> _heap;
    // Declared last: pooled events are destroyed (and deschedule
    // themselves) while the wheel and heap above are still alive.
    std::vector<LambdaEvent *> _lambdaFree;
    std::vector<std::unique_ptr<LambdaEvent>> _lambdaPool;
};

inline
Event::~Event()
{
    if (_eq && _sched)
        _eq->deschedule(*this);
    if (_eq && _heapRefs)
        _eq->purgeHeapRefs(this);
}

inline void
Event::squash()
{
    if (_sched)
        _eq->deschedule(*this);
}

inline void
LambdaEvent::process()
{
    // Release first so the closure can schedule follow-up work into
    // a recycled event (including this one).
    EventFn fn = std::move(_fn);
    _fn = nullptr;
    _owner->releaseLambda(this);
    fn();
}

/**
 * A clock domain: converts cycles of some frequency to kernel ticks.
 * Frequencies that do not divide 1 THz evenly accumulate no drift
 * because conversions are computed from cycle counts, not incremental.
 */
class Clock
{
  public:
    /** @param mhz domain frequency in MHz (500, 1000, 1250, ...). */
    explicit Clock(double mhz)
        : _periodPs(1e6 / mhz), _mhz(mhz)
    {
        if (mhz <= 0)
            fatal("clock frequency must be positive (got %f MHz)", mhz);
    }

    /** Tick duration of @p cycles whole cycles. */
    Tick
    cycles(Cycle n) const
    {
        return static_cast<Tick>(static_cast<double>(n) * _periodPs + 0.5);
    }

    /** One cycle in ticks. */
    Tick period() const { return cycles(1); }

    /** Frequency in MHz. */
    double mhz() const { return _mhz; }

    /** Number of whole cycles elapsed at tick @p t. */
    Cycle
    ticksToCycles(Tick t) const
    {
        return static_cast<Cycle>(static_cast<double>(t) / _periodPs);
    }

  private:
    double _periodPs;
    double _mhz;
};

} // namespace piranha

#endif // PIRANHA_SIM_EVENT_QUEUE_H
