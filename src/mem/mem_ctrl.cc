#include "mem/mem_ctrl.h"

#include <algorithm>

#include "fault/injector.h"
#include "sim/profiler.h"

namespace piranha {

MemCtrl::MemCtrl(EventQueue &eq, std::string name, BackingStore &store,
                 const RdramParams &rp)
    : SimObject(eq, std::move(name)), _store(store), _chan(rp),
      _stats(this->name())
{
}

void
MemCtrl::regStats(StatGroup &parent)
{
    _stats.addScalar("reads", &statReads, "line reads");
    _stats.addScalar("writes", &statWrites, "line writes (posted)");
    _stats.addScalar("page_hits", &_chan.statPageHits,
                     "RDRAM open-page hits");
    _stats.addScalar("page_misses", &_chan.statPageMisses,
                     "RDRAM page activations");
    parent.addChild(&_stats);
}

void
MemCtrl::readLine(Addr addr, MemReadFn done)
{
    ++statReads;
    _queue.push_back(Op{lineAlign(addr), true, std::move(done)});
    maybePump();
}

void
MemCtrl::writeLine(Addr addr, const LineData *data,
                   const std::uint64_t *dir_bits)
{
    ++statWrites;
    // Posted: apply functionally now; charge channel time via queue.
    // A full-line data write overwrites any injected corruption (the
    // rewrite regenerates the stored check bits): fault masked.
    if (_faults && data)
        _faults->memWriteHook(_faultNode, lineAlign(addr));
    BackingStore::Line &l = _store.line(addr);
    if (data)
        l.data = *data;
    if (dir_bits)
        l.dirBits = *dir_bits;
    _queue.push_back(Op{lineAlign(addr), false, nullptr});
    maybePump();
}

void
MemCtrl::stallChannel(Tick dur)
{
    // Transient controller stall: the channel reports busy for @p dur
    // on top of any transfer in flight. pump() defers itself while
    // curTick() < _freeAt, so a pump already scheduled inside the
    // stall window reschedules rather than servicing early.
    _freeAt = std::max(_freeAt, curTick()) + dur;
}

void
MemCtrl::maybePump()
{
    // Start the channel now if it is idle, or make sure a pump is
    // scheduled for when it frees up. Unlike an unconditional
    // reschedule at +occupancy, this never fires a pump onto an empty
    // queue: bursts end without a trailing no-op event.
    if (_pumpPending)
        return;
    if (curTick() >= _freeAt) {
        pump();
    } else {
        _pumpPending = true;
        schedule(_pumpEvent, _freeAt);
    }
}

void
MemCtrl::pump()
{
    PIR_PROF(Mem);
    _pumpPending = false;
    if (_queue.empty())
        return;
    // Only an injected stall can move _freeAt past a scheduled pump
    // (normal pumps fire at or after _freeAt by construction).
    if (curTick() < _freeAt) {
        _pumpPending = true;
        schedule(_pumpEvent, _freeAt);
        return;
    }
    Op op = std::move(_queue.front());
    _queue.pop_front();

    Tick now = curTick();
    Tick lat = _chan.access(op.addr, now);
    Tick occupancy = _chan.transferTime();

    if (op.isRead) {
        // The requester restarts on the critical word; the rest of
        // the line streams during the channel occupancy window.
        Tick done_at = now + lat;
        ReadDoneEvent *ev = _readDoneEvents.acquire(this);
        ev->done = std::move(op.done);
        ev->snapshot = _store.read(op.addr);
        // ECC check point: the array read is where stored check bits
        // are decoded. Correctable errors are fixed in the snapshot
        // and scrubbed back to the array; uncorrectable ones raise a
        // machine check (the line still completes with what it has —
        // the run is torn down by the machine-check poll).
        if (_faults)
            _faults->memReadHook(_faultNode, op.addr, ev->snapshot);
        schedule(*ev, done_at);
    }
    _freeAt = now + occupancy;
    if (!_queue.empty()) {
        _pumpPending = true;
        scheduleIn(_pumpEvent, occupancy);
    }
}

void
MemCtrl::ReadDoneEvent::process()
{
    PIR_PROF(Mem);
    // Recycle before invoking: the completion may enqueue further
    // reads, which may claim this event for their own completions.
    MemReadFn fn = std::move(done);
    done = nullptr;
    BackingStore::Line line = snapshot;
    mc->_readDoneEvents.release(this);
    fn(line.data, line.dirBits);
}

} // namespace piranha
