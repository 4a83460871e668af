/**
 * @file
 * Intra-Chip Switch (ICS) model (paper §2.2).
 *
 * The ICS is conceptually a crossbar interconnecting the 27 clients of
 * a Piranha processing chip (8 dL1 + 8 iL1 + 8 L2 banks + home engine
 * + remote engine + system controller). It uses a uni-directional,
 * push-only transactional interface: the initiator always sources the
 * data, a grant commences the transfer at one 64-bit word per cycle,
 * and transfers are atomic. Two logical lanes (low/high priority)
 * avoid intra-chip protocol deadlock; replies, forwards and
 * invalidations travel on the high lane so they can always drain past
 * waiting requests.
 *
 * The model serializes deliveries per destination port (the datapath
 * bandwidth of 32 GB/s is ~3x the memory bandwidth, so per-source
 * contention is secondary — the paper notes an optimal schedule is not
 * critical). Messages between a given (source, destination, lane)
 * triple are delivered in FIFO order; the intra-chip coherence
 * protocol exploits this ordering to avoid invalidation
 * acknowledgements.
 */

#ifndef PIRANHA_ICS_INTRA_CHIP_SWITCH_H
#define PIRANHA_ICS_INTRA_CHIP_SWITCH_H

#include <iosfwd>
#include <vector>

#include "mem/coherence_types.h"
#include "sim/ring_buffer.h"
#include "sim/sim_object.h"
#include "stats/stats.h"
#include "system/chip_context.h"

namespace piranha {

/** A module reachable through the intra-chip switch. */
class IcsClient
{
  public:
    virtual ~IcsClient() = default;
    /** Deliver one transfer that has fully arrived at this port. */
    virtual void icsDeliver(const IcsMsg &msg) = 0;
};

/** The two logical ICS lanes. */
enum class IcsLane : std::uint8_t
{
    Low = 0,  //!< requests
    High = 1, //!< replies, forwards, invalidations
};

/** Lane used by a given message type. */
IcsLane icsLaneFor(IcsMsgType t);

/** The intra-chip switch. */
class IntraChipSwitch : public SimObject
{
  public:
    /**
     * @param ctx   the chip's context; when it carries a fault
     *              injector (src/fault/), send() offers each message
     *              to it, which may drop, duplicate or delay it
     * @param ports number of client ports (27 for a processing chip)
     * @param clk   chip clock domain
     * @param pipe_cycles fixed pipeline latency through the switch
     */
    IntraChipSwitch(EventQueue &eq, std::string name,
                    const ChipContext &ctx, unsigned ports,
                    const Clock &clk, unsigned pipe_cycles = 2);

    /** Attach @p client to @p port. */
    void connect(int port, IcsClient *client);

    /**
     * Initiate a transfer. msg.srcPort/dstPort must be set. The
     * message is delivered to the destination client after the switch
     * pipeline latency plus any queueing delay at the destination.
     */
    void send(IcsMsg msg);

    /** Cycles a transfer occupies the destination datapath. */
    static unsigned
    occupancyCycles(const IcsMsg &msg)
    {
        // Header word, plus 8 data words for line transfers.
        return msg.hasData ? 1 + lineBytes / 8 : 1;
    }

    /** Queue depths and busy ports (watchdog diagnostic dump). */
    void debugDump(std::ostream &os) const;

    /** Statistics registration. */
    void regStats(StatGroup &parent);

    Scalar statTransfers;
    Scalar statDataTransfers;
    Scalar statHighLane;
    Histogram statQueueDelay{1000.0, 64}; //!< ns buckets

  private:
    /** Fires the destination-port arbitration loop. */
    struct PumpEvent final : public Event
    {
        void process() override { sw->pump(port); }
        const char *eventName() const override { return "ics.pump"; }
        IntraChipSwitch *sw = nullptr;
        int port = -1;
    };

    /** Completes one transfer at its destination client; for
     *  header-only transfers it also runs the next arbitration pass
     *  inline (see pump()). */
    struct DeliverEvent final : public Event
    {
        void
        process() override
        {
            // `msg` is delivered in place: the port's pump loop is
            // active for as long as a delivery is in flight, so a
            // send() re-entered from icsDeliver() only enqueues (it
            // cannot reach pump() and overwrite `msg` under us).
            client->icsDeliver(msg);
            if (pumpAfter)
                sw->pump(port);
        }
        const char *eventName() const override { return "ics.deliver"; }
        IntraChipSwitch *sw = nullptr;
        IcsClient *client = nullptr;
        IcsMsg msg;
        int port = -1;
        bool pumpAfter = false;
    };

    struct Port
    {
        IcsClient *client = nullptr;
        RingBuffer<IcsMsg> queue[2]; //!< per-lane FIFOs
        Tick freeAt = 0;             //!< datapath busy-until
        bool pumping = false;
        // One pump and one delivery can be in flight per port: the
        // next delivery is only scheduled by the pump that fires at
        // or after the previous delivery's tick (same-tick pairs are
        // ordered delivery-first by seq).
        PumpEvent pumpEvent;
        DeliverEvent deliverEvent;
    };

    void pump(int port);

    const ChipContext _ctx;
    const Clock &_clk;
    unsigned _pipeCycles;
    std::vector<Port> _ports;
    StatGroup _stats{"ics"};
};

} // namespace piranha

#endif // PIRANHA_ICS_INTRA_CHIP_SWITCH_H
