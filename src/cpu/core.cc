#include "cpu/core.h"

#include <algorithm>

#include "sim/profiler.h"

namespace piranha {

Core::Core(EventQueue &eq, std::string name, const Clock &clk,
           L1Cache &dl1, L1Cache &il1, const CoreParams &params)
    : SimObject(eq, std::move(name)), _clk(clk), _dl1(dl1), _il1(il1),
      _p(params), _stats(this->name())
{
    if (_p.windowSize) {
        // The instruction window bounds how much downstream work can
        // overlap an outstanding miss; streaming workloads also
        // overlap misses with each other (MSHR-level parallelism), so
        // the bound is the window depth in cycles.
        _creditCap = static_cast<double>(_clk.cycles(_p.windowSize));
    }
}

void
Core::regStats(StatGroup &parent)
{
    _stats.addScalar("busy", &statBusy, "CPU busy ticks");
    _stats.addScalar("l2hit_stall", &statL2HitStall,
                     "stall ticks served on chip (L2 hit / L2 fwd)");
    _stats.addScalar("l2miss_stall", &statL2MissStall,
                     "stall ticks served by local/remote memory");
    _stats.addScalar("idle", &statIdle, "workload idle ticks");
    _stats.addScalar("instructions", &statInstrs, "");
    _stats.addScalar("loads", &statLoads, "");
    _stats.addScalar("stores", &statStores, "");
    _stats.addScalar("ifetches", &statIfetches, "");
    parent.addChild(&_stats);
}

double
Core::busyCyclesPerInstr() const
{
    double eff = std::min<double>(_p.issueWidth,
                                  std::max(1.0, _p.ilp.issueIlp));
    return 1.0 / eff;
}

void
Core::start(InstrStream *stream)
{
    _stream = stream;
    scheduleIn(_nextOpEvent, 0);
}

void
Core::nextOp()
{
    PIR_PROF(Core);
    // Op loop: a zero-event fast hit completes inline with the clock
    // advanced to its hit-latency tick, so the next op is pulled here
    // instead of through a scheduled event — same ticks, same stream
    // pull order, no recursion for long hit streaks.
    while (!_done) {
        StreamOp op = _stream->next();
        switch (op.kind) {
          case StreamOp::Kind::Done:
            _done = true;
            return;
          case StreamOp::Kind::Idle: {
            Tick t = _clk.cycles(op.count);
            statIdle += static_cast<double>(t);
            _accounted += t;
            scheduleIn(_nextOpEvent, t);
            return;
          }
          default:
            if (!fetchThenExecute(op))
                return;
        }
    }
}

bool
Core::fetchThenExecute(StreamOp op)
{
    Addr line = lineAlign(op.pc);
    if (line == _lastFetchLine)
        return execute(op);
    _lastFetchLine = line;
    ++statIfetches;
    MemReq req;
    req.op = MemOp::Ifetch;
    req.addr = op.pc;
    req.size = static_cast<std::uint8_t>(ifetchBytes);
    return issue(_il1, req, op, true);
}

bool
Core::execute(StreamOp op)
{
    switch (op.kind) {
      case StreamOp::Kind::Compute: {
        statInstrs += op.count;
        double cycles = op.count * busyCyclesPerInstr();
        // Carry the sub-tick remainder into the next block so that
        // fractional busy cycles (issueWidth > 1) are not truncated
        // away on every block.
        double want = cycles * _clk.period() + _busyCarry;
        Tick t = want < 1 ? 1 : static_cast<Tick>(want);
        _busyCarry = want - static_cast<double>(t);
        statBusy += static_cast<double>(t);
        _accounted += t;
        scheduleIn(_nextOpEvent, t);
        return false;
      }
      case StreamOp::Kind::Load:
      case StreamOp::Kind::Store:
      case StreamOp::Kind::Wh64: {
        ++statInstrs;
        if (op.kind == StreamOp::Kind::Load)
            ++statLoads;
        else
            ++statStores;
        MemReq req;
        req.addr = op.addr;
        req.size = op.size;
        req.value = op.value;
        req.atomic = op.atomic;
        req.op = op.kind == StreamOp::Kind::Load    ? MemOp::Load
                 : op.kind == StreamOp::Kind::Store ? MemOp::Store
                                                    : MemOp::Wh64;
        return issue(_dl1, req, op, false);
      }
      default:
        panic("%s: bad op kind", name().c_str());
    }
}

/**
 * Issue @p req for @p op to @p l1. On a fast-path hit the L1 has
 * already performed its side effects at the issue tick (the same hit
 * routine the slow path's synchronous tryStart runs); what remains is
 * the hit-latency delay before the core-side completion, which the
 * slow path models with the L1's pooled RespondEvent:
 *
 *  - Inline: when no event anywhere fires at or before the completion
 *    tick, nothing can observe the interval, so the clock advances
 *    directly and the completion runs with zero events scheduled.
 *    The drain behind a fast store is committed first so it files
 *    ahead of anything the (inline) continuation schedules — the
 *    slow path's respond-before-drain seq order.
 *  - Evented: otherwise the core schedules its own _fastRspEvent at
 *    the same delay and from the same program point where the slow
 *    path would schedule the RespondEvent, replacing it 1:1 in the
 *    (tick, seq) order; the drain is committed after, again matching
 *    respond-before-drain.
 *
 * Stream pulls never move: a pull happens either in a scheduled event
 * or inline at an advanced tick that equals the slow path's respond
 * tick, so workloads that read curTick() or share cross-CPU state at
 * pull time (OLTP's log lock) see identical sequences.
 */
bool
Core::issue(L1Cache &l1, const MemReq &req, const StreamOp &op,
            bool ifetch)
{
    _pendingOp = op;
    _pendingIssued = curTick();
    _pendingIfetch = ifetch;
    MemRsp rsp;
    if (!_p.fastPath || !l1.accessFast(req, rsp)) {
        l1.access(req, this);
        return false;
    }
    EventQueue &eq = eventQueue();
    Tick delay = _clk.cycles(L1Cache::hitCycles);
    Tick when = curTick() + delay;
    if (eq.quietThrough(when)) {
        ++inlineHits;
        l1.commitFastDrain();
        eq.advanceTo(when);
        return finishAccess(rsp);
    }
    ++eventedHits;
    _fastRsp = rsp;
    scheduleIn(_fastRspEvent, delay);
    l1.commitFastDrain();
    return false;
}

void
Core::memRsp(const MemRsp &rsp)
{
    PIR_PROF(Core);
    if (finishAccess(rsp))
        nextOp();
}

bool
Core::finishAccess(const MemRsp &rsp)
{
    Tick raw = curTick() - _pendingIssued;
    Tick busy = _pendingIfetch ? 0 : _clk.cycles(1); // pipeline occupancy
    Tick stall = raw > busy ? raw - busy : 0;
    statBusy += static_cast<double>(busy);
    _accounted += busy;
    chargeStall(stall, rsp.source);
    if (_pendingIfetch)
        return execute(_pendingOp);
    _stream->memCompleted(_pendingOp, rsp.value);
    return true;
}

void
Core::chargeStall(Tick stall, FillSource source)
{
    if (stall == 0)
        return;
    // The instruction window overlaps part of the miss latency with
    // independent downstream work (zero for the in-order core).
    double hidden = std::min(static_cast<double>(stall) *
                                 _p.ilp.memOverlap,
                             _creditCap);
    Tick charged =
        static_cast<Tick>(std::max(0.0, static_cast<double>(stall) -
                                            hidden));
    _accounted += charged;
    switch (source) {
      case FillSource::L2Hit:
      case FillSource::L2Fwd:
        statL2HitStall += static_cast<double>(charged);
        break;
      case FillSource::MemLocal:
      case FillSource::MemRemote:
      case FillSource::RemoteDirty:
        statL2MissStall += static_cast<double>(charged);
        break;
      default:
        // L1/store-buffer residual latency counts as busy pipeline
        // time.
        statBusy += static_cast<double>(charged);
        break;
    }
}

} // namespace piranha
