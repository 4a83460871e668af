#include "ics/intra_chip_switch.h"

#include <algorithm>
#include <ostream>

#include "fault/injector.h"
#include "sim/profiler.h"

namespace piranha {

IcsLane
icsLaneFor(IcsMsgType t)
{
    switch (t) {
      case IcsMsgType::GetS:
      case IcsMsgType::GetX:
      case IcsMsgType::Upgrade:
      case IcsMsgType::Wh64Req:
      case IcsMsgType::WbData:
      case IcsMsgType::ToHomeEngine:
      case IcsMsgType::ToRemoteEngine:
        return IcsLane::Low;
      default:
        return IcsLane::High;
    }
}

IntraChipSwitch::IntraChipSwitch(EventQueue &eq, std::string name,
                                 const ChipContext &ctx, unsigned ports,
                                 const Clock &clk, unsigned pipe_cycles)
    : SimObject(eq, std::move(name)), _ctx(ctx), _clk(clk),
      _pipeCycles(pipe_cycles), _ports(ports)
{
    for (std::size_t i = 0; i < _ports.size(); ++i) {
        _ports[i].pumpEvent.sw = this;
        _ports[i].pumpEvent.port = static_cast<int>(i);
        _ports[i].deliverEvent.sw = this;
        _ports[i].deliverEvent.port = static_cast<int>(i);
    }
}

void
IntraChipSwitch::connect(int port, IcsClient *client)
{
    if (port < 0 || static_cast<size_t>(port) >= _ports.size())
        fatal("ICS port %d out of range", port);
    _ports[static_cast<size_t>(port)].client = client;
}

void
IntraChipSwitch::send(IcsMsg msg)
{
    PIR_PROF(Ics);
    if (msg.dstPort < 0 ||
        static_cast<size_t>(msg.dstPort) >= _ports.size())
        panic("ICS send to bad port %d (%s)", msg.dstPort,
              icsMsgTypeName(msg.type));
    Port &p = _ports[static_cast<size_t>(msg.dstPort)];
    if (!p.client)
        panic("ICS port %d has no client", msg.dstPort);

    // Armed transport faults consume the next message through this
    // switch: drop (suppressed entirely), delay (the injector re-sends
    // a copy later), or duplicate (a copy follows the original).
    if (_ctx.injector && !_ctx.injector->icsSendHook(_ctx.node, *this, msg))
        return;

    ++statTransfers;
    if (msg.hasData)
        ++statDataTransfers;
    IcsLane lane = icsLaneFor(msg.type);
    if (lane == IcsLane::High)
        ++statHighLane;

    p.queue[static_cast<int>(lane)].push_back(std::move(msg));
    if (!p.pumping) {
        p.pumping = true;
        // Arbitration happens on the next edge.
        scheduleIn(p.pumpEvent, 0);
    }
}

void
IntraChipSwitch::pump(int port)
{
    PIR_PROF(Ics);
    Port &p = _ports[static_cast<size_t>(port)];
    auto &hi = p.queue[static_cast<int>(IcsLane::High)];
    auto &lo = p.queue[static_cast<int>(IcsLane::Low)];
    if (hi.empty() && lo.empty()) {
        p.pumping = false;
        return;
    }
    // High-priority lane drains first; within a lane, FIFO. This
    // yields per-(src,dst,lane) ordering, which the coherence
    // protocol depends on.
    auto &q = hi.empty() ? lo : hi;

    Tick now = curTick();
    Tick start = std::max(now, p.freeAt);
    Tick deliver = start + _clk.cycles(_pipeCycles);
    p.freeAt = deliver + _clk.cycles(occupancyCycles(q.front()) - 1);
    statQueueDelay.sample(static_cast<double>(start - now) /
                          static_cast<double>(ticksPerNs));

    p.deliverEvent.client = p.client;
    p.deliverEvent.msg = std::move(q.front());
    q.pop_front();
    if (p.freeAt == deliver) {
        // Header-only transfer: the next arbitration pass would land
        // on the delivery tick with the very next sequence number, so
        // nothing can run between delivery and pump — fold the pump
        // into the delivery event and save a kernel event. Identical
        // execution order, observable only in events_executed.
        p.deliverEvent.pumpAfter = true;
        schedule(p.deliverEvent, deliver);
    } else {
        p.deliverEvent.pumpAfter = false;
        schedule(p.deliverEvent, deliver);
        // Pump the next message when the datapath frees up.
        schedule(p.pumpEvent, p.freeAt);
    }
}

void
IntraChipSwitch::debugDump(std::ostream &os) const
{
    for (std::size_t i = 0; i < _ports.size(); ++i) {
        const Port &p = _ports[i];
        std::size_t lo = p.queue[static_cast<int>(IcsLane::Low)].size();
        std::size_t hi = p.queue[static_cast<int>(IcsLane::High)].size();
        if (!lo && !hi && !p.pumping)
            continue;
        os << "    port " << i << ": lo=" << lo << " hi=" << hi
           << (p.pumping ? " (pumping)" : "") << "\n";
    }
}

void
IntraChipSwitch::regStats(StatGroup &parent)
{
    _stats.addScalar("transfers", &statTransfers, "total ICS transfers");
    _stats.addScalar("data_transfers", &statDataTransfers,
                     "transfers carrying a 64B line");
    _stats.addScalar("high_lane", &statHighLane,
                     "transfers on the high-priority lane");
    _stats.addHistogram("queue_delay_ns", &statQueueDelay,
                        "per-transfer arbitration delay");
    parent.addChild(&_stats);
}

} // namespace piranha
