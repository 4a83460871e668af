#include "proto/protocol_engine.h"

#include <algorithm>
#include <bit>
#include <ostream>

#include "check/trace.h"
#include "sim/profiler.h"
#include "system/chip_ports.h"

namespace piranha {

ProtocolEngine::ProtocolEngine(EventQueue &eq, std::string name,
                               const ChipContext &ctx,
                               const EngineConfig &cfg, const Clock &clk,
                               IntraChipSwitch &ics, int my_port)
    : SimObject(eq, std::move(name)), _ctx(ctx), _cfg(cfg), _clk(clk),
      _ics(ics),
      _myPort(my_port), _tsrf(cfg.tsrfEntries), _stats(this->name())
{
    if (cfg.tsrfEntries > 64)
        fatal("%s: %u TSRF entries; at most 64 supported",
              this->name().c_str(), cfg.tsrfEntries);
}

void
ProtocolEngine::regStats(StatGroup &parent)
{
    _stats.addScalar("threads", &statThreads, "protocol threads run");
    _stats.addScalar("instructions", &statInstrs,
                     "microcode instructions executed");
    _stats.addScalar("queued", &statQueuedMsgs,
                     "messages queued behind an active transaction");
    _stats.addScalar("tsrf_full", &statTsrfFull,
                     "messages delayed because all TSRF entries were busy");
    _stats.addHistogram("occupancy_ns", &statOccupancy,
                        "per-transaction engine occupancy");
    parent.addChild(&_stats);
}

void
ProtocolEngine::installProgram(MicroProgram prog,
                               std::map<NetMsgType, std::string> net_entries,
                               std::map<PeOp, std::string> local_entries)
{
    _prog = std::move(prog);
    for (auto &[t, l] : net_entries)
        _netEntries[t] = _prog.entry(l);
    for (auto &[o, l] : local_entries)
        _localEntries[o] = _prog.entry(l);
}

void
ProtocolEngine::debugDump(std::ostream &os) const
{
    for (const auto &t : _tsrf) {
        if (!t.valid)
            continue;
        os << "  " << name() << " tsrf addr=" << std::hex << t.addr
           << std::dec << " pc=" << t.pc << " wait="
           << static_cast<int>(t.wait) << " mask=" << std::hex
           << t.waitMask << std::dec << " acksLeft=" << t.acksLeft
           << " origNet=" << netMsgTypeName(t.origMsg.type)
           << " origLocalOp=" << static_cast<int>(t.origLocal.peOp)
           << "\n";
    }
    _lineQueue.forEach([&](Addr line, const RingBuffer<QMsg> &q) {
        os << "  " << name() << " lineQueue " << std::hex << line
           << std::dec << " depth=" << q.size() << "\n";
    });
    if (!_globalQueue.empty())
        os << "  " << name() << " globalQueue depth="
           << _globalQueue.size() << "\n";
}

bool
ProtocolEngine::idle() const
{
    for (const auto &t : _tsrf)
        if (t.valid)
            return false;
    return _globalQueue.empty();
}

TsrfEntry *
ProtocolEngine::freeEntry()
{
    for (auto &t : _tsrf)
        if (!t.valid)
            return &t;
    return nullptr;
}

TsrfEntry *
ProtocolEngine::activeFor(Addr addr)
{
    const std::size_t *idx = _active.find(lineNum(addr));
    return idx ? &_tsrf[*idx] : nullptr;
}

void
ProtocolEngine::deliverNet(const NetPacket &pkt)
{
    PIR_PROF(Engine);
    if (pkt.type == NetMsgType::Inval) {
        // Invalidations are processed immediately, never serialized
        // behind the line's active transaction: an invalidation
        // belongs to an earlier epoch at the home, and delaying it
        // behind this node's own outstanding request to the same home
        // line would deadlock (the home may be gathering this very
        // acknowledgement). Stale invalidations are filtered at the
        // L2 (they only ever target shared copies).
        QMsg q;
        q.isNet = true;
        q.net = pkt;
        spawnOrQueue(std::move(q));
        return;
    }
    TsrfEntry *t = activeFor(pkt.addr);
    if (t) {
        if (t->wait == TsrfEntry::Wait::Net &&
            (t->waitMask >> static_cast<unsigned>(pkt.type)) & 1) {
            t->msg = pkt;
            resumeWith(*t, static_cast<unsigned>(pkt.type));
            return;
        }
        ++statQueuedMsgs;
        QMsg q;
        q.isNet = true;
        q.net = pkt;
        _lineQueue[lineNum(pkt.addr)].push_back(std::move(q));
        return;
    }
    if (netIsReplyClass(pkt.type))
        panic("%s: reply %s for %#llx with no transaction",
              name().c_str(), netMsgTypeName(pkt.type),
              static_cast<unsigned long long>(pkt.addr));
    QMsg q;
    q.isNet = true;
    q.net = pkt;
    spawnOrQueue(std::move(q));
}

void
ProtocolEngine::icsDeliver(const IcsMsg &msg)
{
    PIR_PROF(Engine);
    switch (msg.type) {
      case IcsMsgType::ToHomeEngine:
      case IcsMsgType::ToRemoteEngine: {
        TsrfEntry *t = activeFor(msg.addr);
        QMsg q;
        q.local = msg;
        if (t) {
            ++statQueuedMsgs;
            _lineQueue[lineNum(msg.addr)].push_back(std::move(q));
        } else {
            spawnOrQueue(std::move(q));
        }
        break;
      }
      case IcsMsgType::PeReadLocalRsp:
      case IcsMsgType::PeWbAck: {
        // Local replies match by transaction id: secondary threads
        // (invalidations) are not registered in the per-line table.
        unsigned cc = msg.type == IcsMsgType::PeReadLocalRsp
                          ? ccLocalReadRsp
                          : ccLocalDone;
        TsrfEntry *t = nullptr;
        for (auto &cand : _tsrf) {
            if (cand.valid && cand.wait == TsrfEntry::Wait::Local &&
                cand.reqId == msg.reqId) {
                t = &cand;
                break;
            }
        }
        if (!t || !((t->waitMask >> cc) & 1))
            panic("%s: unmatched local reply %s", name().c_str(),
                  icsMsgTypeName(msg.type));
        t->local = msg;
        resumeWith(*t, cc);
        break;
      }
      default:
        panic("%s: unexpected ICS message %s", name().c_str(),
              icsMsgTypeName(msg.type));
    }
}

void
ProtocolEngine::resumeWith(TsrfEntry &t, unsigned cc)
{
    const MicroInstr &instr = _prog.mem[t.pc];
    t.wait = TsrfEntry::Wait::None;
    _readyMask |= readyBit(t);
    t.pc = static_cast<std::uint16_t>(instr.next + cc);
    wake();
}

void
ProtocolEngine::spawnOrQueue(QMsg &&m)
{
    if (!freeEntry()) {
        ++statTsrfFull;
        _globalQueue.push_back(std::move(m));
        return;
    }
    spawn(m);
}

void
ProtocolEngine::spawn(const QMsg &m)
{
    TsrfEntry *t = freeEntry();
    if (!t)
        panic("%s: spawn without free TSRF", name().c_str());
    // Fresh registers, but keep the CMI target storage for reuse.
    std::vector<NodeId> cmi_targets = std::move(t->cmiTargets);
    *t = TsrfEntry{};
    t->cmiTargets = std::move(cmi_targets);
    t->valid = true;
    _readyMask |= readyBit(*t);
    t->started = curTick();
    ++statThreads;
    if (m.isNet) {
        t->addr = m.net.addr;
        t->msg = m.net;
        t->origMsg = m.net;
        t->requester = m.net.requester;
        t->reqId = m.net.reqId;
        auto it = _netEntries.find(m.net.type);
        if (it == _netEntries.end())
            panic("%s: no handler for %s", name().c_str(),
                  netMsgTypeName(m.net.type));
        t->pc = it->second;
        if (m.net.type == NetMsgType::Inval) {
            // Secondary thread: runs alongside any primary
            // transaction for the line.
            wake();
            return;
        }
    } else {
        t->addr = m.local.addr;
        t->origLocal = m.local;
        t->local = m.local;
        t->requester = _ctx.node;
        t->reqId = m.local.reqId;
        auto it = _localEntries.find(m.local.peOp);
        if (it == _localEntries.end())
            panic("%s: no handler for local op %d", name().c_str(),
                  static_cast<int>(m.local.peOp));
        t->pc = it->second;
    }
    _active[lineNum(t->addr)] = static_cast<std::size_t>(t - _tsrf.data());
    wake();
}

void
ProtocolEngine::retire(TsrfEntry &t)
{
    statOccupancy.sample(static_cast<double>(curTick() - t.started) /
                         static_cast<double>(ticksPerNs));
    Addr line = lineNum(t.addr);
    std::size_t idx = static_cast<std::size_t>(&t - _tsrf.data());
    t.valid = false;
    t.wait = TsrfEntry::Wait::None;
    _readyMask &= ~readyBit(t);
    const std::size_t *aidx = _active.find(line);
    bool was_primary = aidx && *aidx == idx;
    if (was_primary)
        _active.erase(line);

    // Per-line queue: the next transaction for this line starts once
    // its primary slot frees up.
    RingBuffer<QMsg> *lq = _lineQueue.find(line);
    if (was_primary && lq && !lq->empty()) {
        QMsg next = std::move(lq->front());
        lq->pop_front();
        if (lq->empty())
            _lineQueue.erase(line);
        if (next.isNet && netIsReplyClass(next.net.type))
            panic("%s: queued reply %s orphaned at retire",
                  name().c_str(), netMsgTypeName(next.net.type));
        spawnOrQueue(std::move(next));
    }
    // Then the global overflow queue.
    while (!_globalQueue.empty() && freeEntry()) {
        QMsg next = std::move(_globalQueue.front());
        _globalQueue.pop_front();
        Addr nline = lineNum(next.isNet ? next.net.addr
                                        : next.local.addr);
        if (_active.contains(nline)) {
            _lineQueue[nline].push_back(std::move(next));
            continue;
        }
        spawn(next);
        break;
    }
}

bool
ProtocolEngine::tryConsumeQueued(TsrfEntry &t, bool net_side)
{
    Addr line = lineNum(t.addr);
    RingBuffer<QMsg> *q = _lineQueue.find(line);
    if (!q)
        return false;
    for (std::size_t i = 0; i < q->size(); ++i) {
        QMsg &m = (*q)[i];
        if (m.isNet != net_side)
            continue;
        unsigned cc = m.isNet
                          ? static_cast<unsigned>(m.net.type)
                          : (m.local.type == IcsMsgType::PeReadLocalRsp
                                 ? ccLocalReadRsp
                                 : ccLocalDone);
        if (!((t.waitMask >> cc) & 1))
            continue;
        if (m.isNet)
            t.msg = m.net;
        else
            t.local = m.local;
        q->erase(i);
        if (q->empty())
            _lineQueue.erase(line);
        const MicroInstr &instr = _prog.mem[t.pc];
        t.pc = static_cast<std::uint16_t>(instr.next + cc);
        return true;
    }
    return false;
}

void
ProtocolEngine::StepEvent::process()
{
    ProtocolEngine *e = engine;
    e->_stepEvents.release(this);
    e->step();
}

void
ProtocolEngine::scheduleStep(Tick delta)
{
    scheduleIn(*_stepEvents.acquire(this), delta);
}

void
ProtocolEngine::wake()
{
    if (_stepScheduled)
        return;
    _stepScheduled = true;
    scheduleStep(0);
}

void
ProtocolEngine::step()
{
    PIR_PROF(Engine);
    _stepScheduled = false;
    // Pick the next ready thread, round-robin from _rrNext (the
    // hardware's even/odd interleaved fetch achieves the same
    // one-instruction-per-cycle throughput across threads).
    if (!_readyMask)
        return;
    std::uint64_t from_rr = _readyMask & (~std::uint64_t{0} << _rrNext);
    std::size_t idx = static_cast<std::size_t>(
        std::countr_zero(from_rr ? from_rr : _readyMask));
    _rrNext = (idx + 1) % _tsrf.size();
    executeOne(_tsrf[idx]);
    _stepScheduled = true;
    scheduleStep(_clk.cycles(1));
}

void
ProtocolEngine::executeOne(TsrfEntry &t)
{
    // Chase successor-block aliases (address aliasing is free: the
    // hardware fetches the target slot directly).
    const MicroInstr *instr = &_prog.mem[t.pc];
    while (instr->alias) {
        if (instr->next == 0x3ff)
            panic("%s: microcode trap at pc %u (unhandled condition)",
                  name().c_str(), t.pc);
        t.pc = instr->next;
        instr = &_prog.mem[t.pc];
    }

    ++statInstrs;
    switch (instr->op) {
      case MicroOp::SEND:
      case MicroOp::LSEND:
      case MicroOp::SET:
        if (instr->action)
            instr->action(t);
        t.pc = instr->next;
        break;
      case MicroOp::MOVE:
        if (instr->action)
            instr->action(t);
        if (instr->halt) {
            retire(t);
            return;
        }
        t.pc = instr->next;
        break;
      case MicroOp::TEST: {
        unsigned cc = instr->test ? instr->test(t) : 0;
        if (cc > 15)
            panic("%s: TEST condition %u out of range", name().c_str(),
                  cc);
        t.pc = static_cast<std::uint16_t>(instr->next + cc);
        break;
      }
      case MicroOp::RECEIVE:
        t.waitMask = instr->waitMask;
        if (!tryConsumeQueued(t, true)) {
            t.wait = TsrfEntry::Wait::Net;
            _readyMask &= ~readyBit(t);
        }
        break;
      case MicroOp::LRECEIVE:
        t.waitMask = instr->waitMask;
        if (!tryConsumeQueued(t, false)) {
            t.wait = TsrfEntry::Wait::Local;
            _readyMask &= ~readyBit(t);
        }
        break;
    }
}

// ---- Context operations ----

void
ProtocolEngine::sendNet(NetPacket pkt)
{

    pkt.src = _ctx.node;
    pkt.addr = lineAlign(pkt.addr);
    if (!_cfg.netOut)
        panic("%s: no network attached", name().c_str());
    _cfg.netOut(std::move(pkt));
}

void
ProtocolEngine::sendPeData(TsrfEntry &t, bool has_data, bool exclusive,
                           FillSource source)
{
    IcsMsg m;
    m.type = IcsMsgType::PeData;
    m.addr = t.addr;
    m.srcPort = _myPort;
    m.dstPort = t.origLocal.srcPort;
    m.reqId = t.origLocal.reqId;
    m.hasData = has_data;
    if (has_data)
        m.data = t.data;
    m.exclusive = exclusive;
    m.source = source;
    _ics.send(std::move(m));
}

void
ProtocolEngine::sendPeReadLocal(TsrfEntry &t, PeLocalMode mode,
                                bool hold_line)
{
    IcsMsg m;
    m.type = IcsMsgType::PeReadLocal;
    m.addr = t.addr;
    m.srcPort = _myPort;
    m.dstPort = l2Port(_cfg.amap.bank(t.addr));
    m.reqId = t.reqId;
    m.mode = mode;
    m.holdLine = hold_line;
    _ics.send(std::move(m));
}

void
ProtocolEngine::sendPeComplete(TsrfEntry &t)
{
    IcsMsg m;
    m.type = IcsMsgType::PeComplete;
    m.addr = t.addr;
    m.srcPort = _myPort;
    m.dstPort = l2Port(_cfg.amap.bank(t.addr));
    m.reqId = t.reqId;
    _ics.send(std::move(m));
}

void
ProtocolEngine::sendPeInvalLocal(TsrfEntry &t)
{
    IcsMsg m;
    m.type = IcsMsgType::PeInvalLocal;
    m.addr = t.addr;
    m.srcPort = _myPort;
    m.dstPort = l2Port(_cfg.amap.bank(t.addr));
    m.reqId = t.reqId;
    _ics.send(std::move(m));
}

void
ProtocolEngine::memWrite(Addr addr, const LineData *data,
                         const std::uint64_t *dir)
{
    MemCtrl *mc = _cfg.mcFor ? _cfg.mcFor(addr) : nullptr;
    if (!mc)
        panic("%s: no memory controller for %#llx", name().c_str(),
              static_cast<unsigned long long>(addr));
    mc->writeLine(addr, data, dir);
}

void
ProtocolEngine::planCmi(TsrfEntry &t)
{
    std::vector<NodeId> &targets = t.cmiTargets;
    t.numChains = 0;
    t.chainIdx = 0;
    if (targets.empty())
        return;
    unsigned nchains =
        std::min<unsigned>(_cfg.cmiFanout,
                           static_cast<unsigned>(targets.size()));
    t.numChains = nchains;
    // Deterministic round-robin assignment over sorted targets gives
    // each cruise missile a predetermined set of nodes to visit.
    std::sort(targets.begin(), targets.end());
    PIR_TRACE(_ctx.tracer,
              TraceEvent{.tick = curTick(),
                         .kind = TraceKind::CmiPlan,
                         .node = _ctx.node,
                         .aux = int(nchains),
                         .addr = t.addr,
                         .value = std::uint64_t(targets.size())});
}

bool
ProtocolEngine::sendNextChain(TsrfEntry &t)
{
    if (t.chainIdx >= t.numChains)
        return false;
    std::size_t c = t.chainIdx++;
    const std::vector<NodeId> &targets = t.cmiTargets;
    NetPacket inv;
    inv.type = NetMsgType::Inval;
    inv.addr = t.addr;
    inv.requester = t.requester;
    inv.reqId = t.reqId;
    inv.dst = targets[c];
    inv.cmiRoute.reserve((targets.size() - 1 - c) / t.numChains);
    for (std::size_t i = c + t.numChains; i < targets.size();
         i += t.numChains)
        inv.cmiRoute.push_back(targets[i]);
    sendNet(std::move(inv));
    return true;
}

} // namespace piranha
