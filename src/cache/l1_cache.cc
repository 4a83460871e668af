#include "cache/l1_cache.h"

#include <algorithm>

#include "check/trace.h"
#include "fault/injector.h"
#include "sim/profiler.h"
#include "system/chip_ports.h"

namespace piranha {

namespace {

/** A line a store-conditional or write hint may complete on. */
bool
modifiable(const L1Line *l)
{
    return l && (l->state == L1State::M || l->state == L1State::E);
}

} // namespace

L1Cache::L1Cache(EventQueue &eq, std::string name, const ChipContext &ctx,
                 const L1Params &params, const Clock &clk,
                 IntraChipSwitch &ics, int l1_id,
                 std::function<int(Addr)> bank_port)
    : SimObject(eq, std::move(name)), _ctx(ctx), _clk(clk), _ics(ics),
      _l1Id(l1_id), _bankPort(std::move(bank_port)),
      _tags(params.sizeBytes, params.assoc, ReplPolicy::Lru),
      _stats(this->name())
{
    // The store buffer has a hard depth bound; size it once so the
    // hot push/pop never regrows.
    _sb.reserve(storeBufferDepth);
}

void
L1Cache::regStats(StatGroup &parent)
{
    _stats.addScalar("hits", &statHits, "L1 hits (incl. store buffer)");
    _stats.addScalar("misses", &statMisses, "L1 misses sent to L2");
    _stats.addScalar("sb_forwards", &statSbForwards,
                     "loads satisfied by the store buffer");
    _stats.addScalar("invals", &statInvalsReceived,
                     "invalidations received");
    _stats.addScalar("fwds_serviced", &statFwdsServiced,
                     "peer fills supplied as on-chip owner");
    _stats.addScalar("writebacks", &statWritebacks,
                     "victim write-backs to L2");
    _stats.addScalar("upgrades", &statUpgrades, "S->M upgrades");
    parent.addChild(&_stats);
}

L1State
L1Cache::lineState(Addr addr) const
{
    const L1Line *l = _tags.find(addr);
    return l ? l->state : L1State::I;
}

void
L1Cache::RespondEvent::process()
{
    PIR_PROF(L1);
    // Detach payload and recycle before invoking: the completion may
    // issue the CPU's next access, which can claim this very event.
    RspHandler h = std::move(handler);
    handler.reset();
    MemRsp r = rsp;
    cache->_respondEvents.release(this);
    h(r);
}

void
L1Cache::DrainEvent::process()
{
    PIR_PROF(L1);
    // Recycle before draining: the drain pass may schedule the next
    // one, and the legacy kernel allowed two passes in flight.
    L1Cache *c = cache;
    c->_drainEvents.release(this);
    c->drainStoreBuffer();
}

void
L1Cache::scheduleDrain()
{
    scheduleIn(*_drainEvents.acquire(this), _clk.cycles(1));
}

void
L1Cache::respond(RspHandler &rsp, std::uint64_t value, FillSource src,
                 unsigned extra_cycles)
{
    if (!rsp)
        return;
    ++respondEventsScheduled;
    RespondEvent *ev = _respondEvents.acquire(this);
    ev->handler = std::move(rsp);
    ev->rsp = MemRsp{value, src};
    scheduleIn(*ev, _clk.cycles(hitCycles + extra_cycles));
}

void
L1Cache::access(const MemReq &req, MemRspFn rsp)
{
    startAccess(req, RspHandler(std::move(rsp)));
}

void
L1Cache::access(const MemReq &req, MemRspClient *client)
{
    startAccess(req, RspHandler(client));
}

bool
L1Cache::accessFast(const MemReq &req, MemRsp &out)
{
    if (!_cpuQueue.empty())
        return false; // queued work must keep its FIFO order
    bool arm_drain = false;
    if (!hit(req, out, arm_drain))
        return false;
    // Deferred: the drain must file after the caller's completion
    // position (see commitFastDrain).
    if (arm_drain)
        _fastDrainPending = true;
    return true;
}

bool
L1Cache::hit(const MemReq &req, MemRsp &out, bool &arm_drain)
{
    if (req.op == MemOp::Store) {
        // A plain store completes when it enters the store buffer; a
        // store-conditional bypasses it and completes only once the
        // line is modifiable and the data applied (globally ordered).
        L1Line *l = nullptr;
        if (req.atomic) {
            l = _tags.find(req.addr);
            if (!modifiable(l) || l->parityBad)
                return false;
        } else if (_sb.size() >= storeBufferDepth) {
            return false; // waits for the drain to free a slot
        }
        PIR_TRACE(_ctx.tracer,
                  TraceEvent{.tick = curTick(),
                             .kind = TraceKind::StoreIssue,
                             .node = _ctx.node,
                             .l1 = _l1Id,
                             .size = req.size,
                             .addr = req.addr,
                             .value = req.value});
        ++statHits;
        if (l) {
            applyStore(*l, SbEntry{req.addr, req.size, req.value});
            out = MemRsp{0, FillSource::L1};
        } else {
            _sb.push_back(SbEntry{req.addr, req.size, req.value});
            out = MemRsp{0, FillSource::StoreBuffer};
            arm_drain = !_drainScheduled;
            _drainScheduled = true;
        }
        return true;
    }

    if (req.op == MemOp::Wh64) {
        L1Line *l = _tags.find(req.addr);
        if (!modifiable(l) || l->parityBad)
            return false;
        l->state = L1State::M;
        _tags.touch(*l);
        ++statHits;
        out = MemRsp{0, FillSource::L1};
        return true;
    }

    // Load / Ifetch: a data load whose bytes the store buffer holds
    // is forwarded from it; anything else needs a good tag hit.
    MemRsp r{0, FillSource::StoreBuffer};
    if (isInstrL1(_l1Id) || !sbCovers(req.addr, req.size, r.value)) {
        L1Line *l = _tags.find(req.addr);
        if (!l || l->parityBad)
            return false;
        _tags.touch(*l);
        r = MemRsp{composeLoad(*l, req.addr, req.size), FillSource::L1};
    } else {
        ++statSbForwards;
    }
    ++statHits;
    PIR_TRACE(_ctx.tracer,
              TraceEvent{.tick = curTick(),
                         .kind = TraceKind::LoadCommit,
                         .node = _ctx.node,
                         .l1 = _l1Id,
                         .size = req.size,
                         .src = r.source,
                         .addr = req.addr,
                         .value = r.value});
    out = r;
    return true;
}

void
L1Cache::startAccess(const MemReq &req, RspHandler rsp)
{
    PIR_PROF(L1);
    if (isInstrL1(_l1Id) && req.op != MemOp::Ifetch)
        panic("%s: non-ifetch op to instruction cache", name().c_str());
    if (!isInstrL1(_l1Id) && req.op == MemOp::Ifetch)
        panic("%s: ifetch op to data cache", name().c_str());
    _cpuQueue.push_back(PendingCpu{req, std::move(rsp)});
    tryStart();
}

void
L1Cache::tryStart()
{
    while (!_cpuQueue.empty()) {
        PendingCpu &pc = _cpuQueue.front();
        const MemReq &req = pc.req;
        MemRsp out;
        bool arm_drain = false;
        if (hit(req, out, arm_drain)) {
            respond(pc.rsp, out.value, out.source);
            _cpuQueue.pop_front();
            if (arm_drain)
                scheduleDrain();
            continue;
        }
        if (req.op == MemOp::Store && !req.atomic)
            return; // store buffer full: wait for the drain
        L1Line *l = _tags.find(req.addr);
        if (l && l->parityBad && req.op == MemOp::Wh64) {
            // The write hint overwrites the whole line and leaves its
            // contents architecturally undefined — the parity error
            // is masked by the overwrite. Retry: the line may now hit.
            l->parityBad = false;
            if (_ctx.injector)
                ++_ctx.injector->counters.parityMaskedByOverwrite;
            continue;
        }
        if (!issueMiss(req, pc.rsp, l))
            return;
        _cpuQueue.pop_front();
    }
}

bool
L1Cache::issueMiss(const MemReq &req, RspHandler &rsp, L1Line *line)
{
    // A parity-bad line is detected at use and refetched (exclusively
    // for a store: an S-state upgrade would keep the corrupt data).
    bool refetch = line && line->parityBad;
    if (refetch && line->state == L1State::M) {
        // Dirty data with bad parity: the only up-to-date copy is
        // untrustworthy. Unrecoverable — raise a machine check; the
        // run loop tears the simulation down.
        if (_ctx.injector)
            _ctx.injector->raiseMachineCheck(strFormat(
                "%s: parity error on dirty line %#llx", name().c_str(),
                static_cast<unsigned long long>(line->addr)));
        return false;
    }
    if (_mshr.valid)
        return false; // blocking cache: one outstanding miss

    if (refetch && _ctx.injector)
        ++_ctx.injector->counters.l1ParityRefetch;
    // A store-conditional that misses records its StoreIssue here (a
    // hit does in hit()); a refetched one records none, and its
    // StoreCommit at the fill stands alone.
    if (req.op == MemOp::Store && req.atomic && !refetch)
        PIR_TRACE(_ctx.tracer,
                  TraceEvent{.tick = curTick(),
                             .kind = TraceKind::StoreIssue,
                             .node = _ctx.node,
                             .l1 = _l1Id,
                             .size = req.size,
                             .addr = req.addr,
                             .value = req.value});
    ++statMisses;
    _mshr.valid = true;
    _mshr.req = req;
    _mshr.rsp = std::move(rsp);
    _mshr.lineAddr = lineAlign(req.addr);
    _mshr.isUpgrade = line && !refetch && line->state == L1State::S;
    _mshr.haveVictim = false;

    IcsMsg msg;
    msg.addr = _mshr.lineAddr;
    msg.reqId = nextReqId();

    if (_mshr.isUpgrade) {
        msg.type = IcsMsgType::Upgrade;
        ++statUpgrades;
    } else {
        switch (req.op) {
          case MemOp::Load:
          case MemOp::Ifetch:
            msg.type = IcsMsgType::GetS;
            break;
          case MemOp::Store:
            msg.type = IcsMsgType::GetX;
            break;
          case MemOp::Wh64:
            msg.type = IcsMsgType::Wh64Req;
            break;
        }
        // Reserve the victim way. The victim stays fully functional
        // in the array until the reply arrives (it can still service
        // forwards), and its data travels with this request so the L2
        // can capture it at its serialization point if this L1 is the
        // owner (victim-cache fill; even clean owner data is kept).
        // (Store-buffer entries targeting the victim are fine: they
        // have not globally performed yet and will re-apply through
        // their own coherent misses after the replacement.)
        //
        // A refetch names the parity-bad line as its own victim: the
        // L2 clears this L1's ownership records at its serialization
        // point (parityVictim suppresses the data install — the
        // payload is untrusted, and a clean line is current in
        // L2/memory anyway), and completeMiss's normal victim-drop
        // path reuses the way for the incoming fill.
        L1Line &v = refetch ? *line : _tags.victimFor(req.addr);
        if (v.valid) {
            _mshr.haveVictim = true;
            _mshr.victimAddr = v.addr;
            msg.hasVictim = true;
            msg.victimAddr = v.addr;
            msg.victimDirty = v.state == L1State::M;
            msg.hasData = true;
            msg.data = v.data;
            msg.parityVictim = refetch;
        }
    }
    sendToBank(std::move(msg), _mshr.lineAddr);
    return true;
}

void
L1Cache::sendToBank(IcsMsg msg, Addr addr)
{
    msg.srcPort = _l1Id;
    msg.dstPort = _bankPort(addr);
    msg.l1Id = _l1Id;
    _ics.send(std::move(msg));
}

void
L1Cache::icsDeliver(const IcsMsg &msg)
{
    PIR_PROF(L1);
    switch (msg.type) {
      case IcsMsgType::FillS:
      case IcsMsgType::FillX:
      case IcsMsgType::UpgradeAck:
      case IcsMsgType::PeerFillS:
      case IcsMsgType::PeerFillX:
        completeMiss(msg);
        break;

      case IcsMsgType::Inval: {
        ++statInvalsReceived;
        PIR_TRACE(_ctx.tracer, TraceEvent{.tick = curTick(),
                                          .kind = TraceKind::InvalRecv,
                                          .node = _ctx.node,
                                          .l1 = _l1Id,
                                          .addr = msg.addr});
        L1Line *l = _tags.find(msg.addr);
        if (l) {
            l->state = L1State::I;
            _tags.invalidate(*l);
        }
        break;
      }

      case IcsMsgType::FwdGetS:
      case IcsMsgType::FwdGetX: {
        // We are the on-chip owner: supply the line to the peer L1
        // directly through the switch and notify the L2.
        L1Line *l = _tags.find(msg.addr);
        if (!l || l->state == L1State::I)
            panic("%s: forward for absent line %#llx", name().c_str(),
                  static_cast<unsigned long long>(msg.addr));
        ++statFwdsServiced;
        bool was_dirty = l->state == L1State::M;

        IcsMsg fill;
        fill.type = msg.type == IcsMsgType::FwdGetS
                        ? IcsMsgType::PeerFillS
                        : IcsMsgType::PeerFillX;
        fill.addr = msg.addr;
        fill.hasData = true;
        fill.data = l->data;
        fill.source = FillSource::L2Fwd;
        fill.exclusive = msg.type == IcsMsgType::FwdGetX;
        fill.writeBackVictim = msg.writeBackVictim;
        fill.reqId = msg.reqId;
        fill.srcPort = _l1Id;
        fill.dstPort = msg.l1Id; // L1 ports are their l1 ids
        fill.l1Id = msg.l1Id;
        _ics.send(std::move(fill));

        if (msg.type == IcsMsgType::FwdGetX) {
            // Seeded fault: the owner supplies the line but illegally
            // keeps its modified copy instead of invalidating it.
            if (!(_ctx.faults &&
                  _ctx.faults->fire(ProtocolFault::FwdKeepOwner))) {
                l->state = L1State::I;
                _tags.invalidate(*l);
            }
        } else {
            l->state = L1State::S;
        }
        PIR_TRACE(_ctx.tracer,
                  TraceEvent{.tick = curTick(),
                             .kind = TraceKind::FwdService,
                             .node = _ctx.node,
                             .l1 = _l1Id,
                             .aux = msg.l1Id,
                             .state = unsigned(lineState(msg.addr)),
                             .addr = msg.addr});

        IcsMsg done;
        done.type = IcsMsgType::FwdDone;
        done.addr = msg.addr;
        done.reqId = msg.reqId;
        done.victimDirty = was_dirty;
        done.srcPort = _l1Id;
        done.dstPort = msg.srcPort;
        done.l1Id = _l1Id;
        _ics.send(std::move(done));
        break;
      }

      default:
        panic("%s: unexpected ICS message %s", name().c_str(),
              icsMsgTypeName(msg.type));
    }
}

void
L1Cache::completeMiss(const IcsMsg &msg)
{
    if (!_mshr.valid || lineAlign(msg.addr) != _mshr.lineAddr)
        panic("%s: fill %s for %#llx without matching MSHR",
              name().c_str(), icsMsgTypeName(msg.type),
              static_cast<unsigned long long>(msg.addr));

    L1Line *slot = nullptr;

    if (msg.type == IcsMsgType::UpgradeAck) {
        slot = _tags.find(msg.addr);
        if (!slot)
            panic("%s: upgrade ack but line gone", name().c_str());
        slot->state = L1State::E;
        PIR_TRACE(_ctx.tracer,
                  TraceEvent{.tick = curTick(),
                             .kind = TraceKind::Fill,
                             .node = _ctx.node,
                             .l1 = _l1Id,
                             .state = unsigned(L1State::E),
                             .src = msg.source,
                             .addr = lineAlign(msg.addr)});
    } else if (_mshr.isUpgrade) {
        // Our shared copy was invalidated while the upgrade was in
        // flight; the L2 turned it into a full fill.
        slot = _tags.find(msg.addr);
        if (!slot) {
            slot = &_tags.victimFor(msg.addr);
            if (slot->valid)
                panic("%s: no free way for upgrade-turned-fill",
                      name().c_str());
            _tags.install(*slot, msg.addr);
        }
        slot->data = msg.data;
        slot->state = L1State::E;
        slot->parityBad = false; // full fill: parity regenerated
        _tags.touch(*slot);
        PIR_TRACE(_ctx.tracer,
                  TraceEvent{.tick = curTick(),
                             .kind = TraceKind::Fill,
                             .node = _ctx.node,
                             .l1 = _l1Id,
                             .state = unsigned(L1State::E),
                             .src = msg.source,
                             .addr = lineAlign(msg.addr)});
    } else {
        // Normal fill: drop the reserved victim (its data was
        // shipped with the request; the L2 captured it if needed).
        if (_mshr.haveVictim) {
            L1Line *v = _tags.find(_mshr.victimAddr);
            if (v && v->valid) {
                ++statWritebacks;
                PIR_TRACE(_ctx.tracer,
                          TraceEvent{.tick = curTick(),
                                     .kind = TraceKind::VictimDrop,
                                     .node = _ctx.node,
                                     .l1 = _l1Id,
                                     .state = unsigned(v->state),
                                     .addr = v->addr});
                v->state = L1State::I;
                _tags.invalidate(*v);
                slot = v;
            }
        }
        if (!slot) {
            slot = &_tags.victimFor(msg.addr);
            if (slot->valid)
                panic("%s: fill found no free way", name().c_str());
        }
        _tags.install(*slot, msg.addr);
        slot->parityBad = false; // fresh fill: parity regenerated
        if (msg.hasData)
            slot->data = msg.data;
        else
            slot->data = LineData{}; // wh64: contents unpredictable
        slot->state = (msg.type == IcsMsgType::FillS ||
                       msg.type == IcsMsgType::PeerFillS)
                          ? L1State::S
                          : L1State::E;
        PIR_TRACE(_ctx.tracer,
                  TraceEvent{.tick = curTick(),
                             .kind = TraceKind::Fill,
                             .node = _ctx.node,
                             .l1 = _l1Id,
                             .state = unsigned(slot->state),
                             .src = msg.source,
                             .addr = lineAlign(msg.addr)});
    }

    // Complete the CPU-side operation.
    MemReq req = _mshr.req;
    RspHandler rsp = std::move(_mshr.rsp);
    _mshr.valid = false;
    _mshr.rsp.reset();

    switch (req.op) {
      case MemOp::Load:
      case MemOp::Ifetch: {
        std::uint64_t v = composeLoad(*slot, req.addr, req.size);
        PIR_TRACE(_ctx.tracer, TraceEvent{.tick = curTick(),
                                          .kind = TraceKind::LoadCommit,
                                          .node = _ctx.node,
                                          .l1 = _l1Id,
                                          .size = req.size,
                                          .src = msg.source,
                                          .addr = req.addr,
                                          .value = v});
        respond(rsp, v, msg.source);
        break;
      }
      case MemOp::Wh64:
        slot->state = L1State::M;
        // Line contents are architecturally undefined after a write
        // hint; the checker treats the whole line as wildcard-written.
        PIR_TRACE(_ctx.tracer, TraceEvent{.tick = curTick(),
                                          .kind = TraceKind::Wh64,
                                          .node = _ctx.node,
                                          .l1 = _l1Id,
                                          .addr = lineAlign(req.addr)});
        respond(rsp, 0, msg.source);
        break;
      case MemOp::Store:
        if (rsp) {
            // Atomic store: apply and report global ordering.
            applyStore(*slot,
                       SbEntry{req.addr, req.size, req.value});
            respond(rsp, 0, msg.source);
        }
        // else: store-buffer drain miss; the drain loop applies the
        // store now that the line is exclusive.
        break;
    }

    if (!_drainScheduled && !_sb.empty()) {
        _drainScheduled = true;
        scheduleDrain();
    }
    tryStart();
}

void
L1Cache::drainStoreBuffer()
{
    _drainScheduled = false;
    if (_sb.empty())
        return;
    const SbEntry &e = _sb.front();
    L1Line *l = _tags.find(e.addr);
    bool bad = l && l->parityBad;
    bool ready = !bad && modifiable(l);
    // Seeded fault: the head entry is silently discarded instead of
    // issuing its miss — the store is lost before it globally performs.
    bool drop = !bad && !ready && !_mshr.valid && _ctx.faults &&
                _ctx.faults->fire(ProtocolFault::SbDropOnMiss);
    if (ready || drop) {
        if (ready)
            applyStore(*l, e);
        _sb.pop_front();
        tryStart(); // a CPU store may be waiting for a free SB slot
        if (!_sb.empty()) {
            _drainScheduled = true;
            scheduleDrain();
        }
        return;
    }
    // The entry stays buffered until its miss fills (the fill's drain
    // pass applies it); a parity-bad line is refetched first, since
    // the store must not merge into corrupt data.
    MemReq req;
    req.op = MemOp::Store;
    req.addr = e.addr;
    req.size = e.size;
    req.value = e.value;
    RspHandler none{};
    issueMiss(req, none, l);
}

void
L1Cache::applyStore(L1Line &line, const SbEntry &e)
{
    line.data.write(static_cast<unsigned>(e.addr & (lineBytes - 1)),
                    e.size, e.value);
    line.state = L1State::M;
    _tags.touch(line);
    PIR_TRACE(_ctx.tracer, TraceEvent{.tick = curTick(),
                                      .kind = TraceKind::StoreCommit,
                                      .node = _ctx.node,
                                      .l1 = _l1Id,
                                      .size = e.size,
                                      .addr = e.addr,
                                      .value = e.value});
}

std::uint64_t
L1Cache::composeLoad(const L1Line &line, Addr addr, unsigned size) const
{
    std::uint64_t v = line.data.read(
        static_cast<unsigned>(addr & (lineBytes - 1)), size);
    // Overlay younger store-buffer bytes (oldest to newest).
    auto *bytes = reinterpret_cast<std::uint8_t *>(&v);
    for (const SbEntry &e : _sb) {
        for (unsigned b = 0; b < e.size; ++b) {
            Addr ba = e.addr + b;
            if (ba >= addr && ba < addr + size)
                bytes[ba - addr] =
                    static_cast<std::uint8_t>(e.value >> (8 * b));
        }
    }
    return v;
}

bool
L1Cache::sbCovers(Addr addr, unsigned size, std::uint64_t &value) const
{
    std::uint64_t v = 0;
    auto *bytes = reinterpret_cast<std::uint8_t *>(&v);
    // Accesses are at most 8 bytes, so a per-byte coverage bitmask
    // replaces the per-call std::vector<bool> the old loop allocated.
    std::uint64_t have = 0;
    const std::uint64_t full = size >= 64 ? ~std::uint64_t(0)
                                          : (std::uint64_t(1) << size) - 1;
    for (const SbEntry &e : _sb) {
        for (unsigned b = 0; b < e.size; ++b) {
            Addr ba = e.addr + b;
            if (ba >= addr && ba < addr + size) {
                unsigned idx = static_cast<unsigned>(ba - addr);
                have |= std::uint64_t(1) << idx;
                bytes[idx] =
                    static_cast<std::uint8_t>(e.value >> (8 * b));
            }
        }
    }
    if (have == full) {
        value = v;
        return true;
    }
    return false;
}

L1State
L1Cache::faultMarkParity(unsigned nth, unsigned bit, bool corrupt_data)
{
    for (L1Line &l : _tags.raw()) {
        if (!l.valid)
            continue;
        if (nth--)
            continue;
        l.parityBad = true;
        if (corrupt_data) {
            unsigned byte = (bit / 8) % lineBytes;
            l.data.bytes[byte] ^=
                static_cast<std::uint8_t>(1u << (bit % 8));
        }
        return l.state;
    }
    return L1State::I;
}


} // namespace piranha
