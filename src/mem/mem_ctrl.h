/**
 * @file
 * Memory controller engine (paper §2.4).
 *
 * One controller (and one Rambus channel) is attached to each L2
 * bank. The controller does not connect to the intra-chip switch:
 * all memory access is controlled by and routed through the owning L2
 * controller, at cache-line granularity, for both data and the
 * associated directory (which travels in the line's ECC bits).
 *
 * Reads complete asynchronously after the RDRAM access latency plus
 * any channel queueing; writes are posted (functionally applied at
 * enqueue, channel occupancy charged).
 */

#ifndef PIRANHA_MEM_MEM_CTRL_H
#define PIRANHA_MEM_MEM_CTRL_H

#include <cstddef>
#include <new>
#include <type_traits>

#include "mem/backing_store.h"
#include "mem/rdram.h"
#include "sim/ring_buffer.h"
#include "sim/sim_object.h"
#include "stats/stats.h"
#include "system/chip_context.h"

namespace piranha {

/**
 * Completion callback for a line read: data plus directory bits.
 *
 * A fixed-capacity, trivially-copyable callable rather than a
 * std::function: one completion is queued per line read on the miss
 * path, and std::function pays a manager call on every move through
 * the request queue and the completion event. Captures must be
 * trivially copyable and fit in kCaptureBytes (the L2 callbacks
 * capture {this, addr}).
 */
class MemReadFn
{
  public:
    MemReadFn() = default;
    MemReadFn(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, MemReadFn>>>
    MemReadFn(F f)
    {
        static_assert(sizeof(F) <= kCaptureBytes,
                      "capture too large for MemReadFn");
        static_assert(std::is_trivially_copyable_v<F>,
                      "MemReadFn captures must be trivially copyable");
        new (_capture) F(f);
        _invoke = [](const void *c, const LineData &d,
                     std::uint64_t dir) {
            (*static_cast<const F *>(c))(d, dir);
        };
    }

    explicit operator bool() const { return _invoke != nullptr; }

    void
    operator()(const LineData &d, std::uint64_t dir_bits) const
    {
        _invoke(_capture, d, dir_bits);
    }

  private:
    static constexpr std::size_t kCaptureBytes = 32;
    using Invoke = void (*)(const void *, const LineData &,
                            std::uint64_t);

    alignas(void *) unsigned char _capture[kCaptureBytes] = {};
    Invoke _invoke = nullptr;
};

/** The per-bank memory controller. */
class MemCtrl : public SimObject
{
  public:
    /**
     * With a fault injector in @p ctx (src/fault/), reads run their
     * snapshot through the injector's ECC model (correct-and-scrub or
     * machine check) and data writes mask any pending corruption of
     * the line.
     */
    MemCtrl(EventQueue &eq, std::string name, const ChipContext &ctx,
            BackingStore &store, const RdramParams &rp = RdramParams{});

    /** Read one line (data + directory); @p done fires on completion. */
    void readLine(Addr addr, MemReadFn done);

    /**
     * Posted write of one line. Either part may be null to leave it
     * unchanged (directory-only updates are common).
     */
    void writeLine(Addr addr, const LineData *data,
                   const std::uint64_t *dir_bits);

    RdramChannel &channel() { return _chan; }

    /** Transient channel stall: channel busy for @p dur from now. */
    void stallChannel(Tick dur);

    void regStats(StatGroup &parent);

    Scalar statReads;
    Scalar statWrites;

  private:
    struct Op
    {
        Addr addr;
        bool isRead;
        MemReadFn done;
    };

    /** Carries one read completion (callback + line snapshot). */
    struct ReadDoneEvent final : public Event
    {
        explicit ReadDoneEvent(MemCtrl *m) : mc(m) {}
        void process() override;
        const char *eventName() const override { return "mc.readDone"; }
        MemCtrl *mc;
        MemReadFn done;
        BackingStore::Line snapshot;
    };

    void maybePump();
    void pump();

    const ChipContext _ctx;
    BackingStore &_store;
    RdramChannel _chan;
    RingBuffer<Op> _queue;
    Tick _freeAt = 0;          //!< channel busy until this tick
    bool _pumpPending = false; //!< a pump event is scheduled
    MemberEvent<MemCtrl, &MemCtrl::pump> _pumpEvent{this, "mc.pump"};
    EventPool<ReadDoneEvent> _readDoneEvents;
    StatGroup _stats;
};

} // namespace piranha

#endif // PIRANHA_MEM_MEM_CTRL_H
