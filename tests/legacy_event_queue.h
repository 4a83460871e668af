/**
 * @file
 * The original closure-over-priority-queue event kernel, preserved
 * verbatim (renamed) as a test oracle. It is not used by the
 * simulator; the randomized equivalence test
 * (tests/event_kernel_test.cc) checks that the wheel/heap kernel
 * executes any schedule sequence in the identical order.
 */

#ifndef PIRANHA_TESTS_LEGACY_EVENT_QUEUE_H
#define PIRANHA_TESTS_LEGACY_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/logging.h"
#include "sim/types.h"

namespace piranha {

/** The pre-wheel event queue: one closure per scheduled event. */
class LegacyEventQueue
{
  public:
    using Fn = std::function<void()>;

    LegacyEventQueue() = default;
    LegacyEventQueue(const LegacyEventQueue &) = delete;
    LegacyEventQueue &operator=(const LegacyEventQueue &) = delete;

    Tick curTick() const { return _curTick; }

    void
    schedule(Tick when, Fn fn)
    {
        if (when < _curTick)
            panic("event scheduled in the past (%llu < %llu)",
                  (unsigned long long)when, (unsigned long long)_curTick);
        _events.push(Entry{when, _nextSeq++, std::move(fn)});
    }

    void
    scheduleIn(Tick delta, Fn fn)
    {
        schedule(_curTick + delta, std::move(fn));
    }

    size_t pending() const { return _events.size(); }

    bool
    run(Tick limit = ~Tick(0))
    {
        while (!_events.empty()) {
            const Entry &top = _events.top();
            if (top.when > limit) {
                _curTick = limit;
                return false;
            }
            _curTick = top.when;
            Fn fn = std::move(const_cast<Entry &>(top).fn);
            _events.pop();
            ++_executed;
            fn();
        }
        return true;
    }

    bool
    step()
    {
        if (_events.empty())
            return false;
        const Entry &top = _events.top();
        _curTick = top.when;
        Fn fn = std::move(const_cast<Entry &>(top).fn);
        _events.pop();
        ++_executed;
        fn();
        return true;
    }

    std::uint64_t executed() const { return _executed; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Fn fn;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> _events;
    Tick _curTick = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
};

} // namespace piranha

#endif // PIRANHA_TESTS_LEGACY_EVENT_QUEUE_H
