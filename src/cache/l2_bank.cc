#include "cache/l2_bank.h"

#include <bit>
#include <iostream>
#include <iterator>
#include <ostream>

#include "check/trace.h"
#include "fault/injector.h"
#include "sim/profiler.h"

namespace piranha {

L2Bank::L2Bank(EventQueue &eq, std::string name, const ChipContext &ctx,
               const L2Params &params, const Clock &clk,
               IntraChipSwitch &ics, int my_port, const AddressMap &amap,
               MemCtrl &mc)
    : SimObject(eq, std::move(name)), _ctx(ctx), _p(params), _clk(clk),
      _ics(ics), _myPort(my_port), _amap(amap), _mc(mc),
      _tags(params.bankBytes, params.assoc, ReplPolicy::RoundRobin, 3),
      _stats(this->name())
{
}

void
L2Bank::regStats(StatGroup &parent)
{
    _stats.addScalar("l2_hit", &statL2Hit, "L1 misses served by L2");
    _stats.addScalar("l2_fwd", &statL2Fwd,
                     "L1 misses forwarded to another on-chip L1");
    _stats.addScalar("mem_local", &statMemLocal,
                     "L1 misses filled from local memory");
    _stats.addScalar("mem_remote", &statMemRemote,
                     "L1 misses filled from remote home memory");
    _stats.addScalar("remote_dirty", &statRemoteDirty,
                     "L1 misses served by a dirty remote node");
    _stats.addScalar("wb_installs", &statWbInstalls,
                     "L1 victim write-backs installed (victim cache)");
    _stats.addScalar("evictions", &statL2Evictions, "L2 line evictions");
    _stats.addScalar("blocked", &statBlockedReqs,
                     "requests blocked on a pending entry");
    _stats.addScalar("engine_trips", &statEngineTrips,
                     "requests needing a protocol engine");
    _stats.addScalar("pdir_shortcut", &statPdirShortcut,
                     "exclusive grants via cached partial dir info");
    parent.addChild(&_stats);
}

void
L2Bank::debugDump(std::ostream &os) const
{
    static constexpr const char *kindNames[] = {
        "None", "L1Fwd", "L1Mem", "L1Engine", "PeRead", "PeReadFwd",
        "PeHeld"};
    static_assert(std::size(kindNames) == Txn::PeHeld + 1);
    _info.forEach([&](Addr line, const Info &info) {
        if (info.pending == noPending)
            return;
        const Pending &p = pendingOf(info);
        os << "  " << name() << " line=" << std::hex << (line << 6)
           << std::dec << " busy=" << info.busy << " txn="
           << kindNames[info.busy ? p.txn.kind : Txn::None]
           << " peActive=" << info.peActive << " peTxn="
           << kindNames[info.peActive ? p.peTxn.kind : Txn::None]
           << " blocked=" << p.blocked.size()
           << " sharers=" << std::hex << info.sharers << std::dec
           << " owner=" << info.ownerL1 << " l1Excl=" << info.l1Excl
           << " nodeExcl=" << info.nodeExcl << "\n";
    });
}

bool
L2Bank::lineBusy(Addr addr)
{
    const Info *i = findInfo(addr);
    return i && (i->busy || i->peActive);
}

std::string
L2Bank::checkInvariants(bool drained) const
{
    std::string err;
    auto fail = [&](Addr line, const char *what) {
        if (err.empty())
            err = strFormat("%s: line %#llx: %s", name().c_str(),
                            static_cast<unsigned long long>(line << 6),
                            what);
    };
    std::size_t holders = 0;
    _info.forEach([&](Addr line, const Info &info) {
        if (info.inL2 != (_tags.find(line << 6) != nullptr))
            fail(line, "in-L2 bit disagrees with the tag array");
        bool active = info.busy || info.peActive;
        if (info.pending == noPending) {
            if (active)
                fail(line, "busy or peActive without a pending entry");
            else if (drained && info.sharers == 0 && !info.nodeExcl &&
                     !info.nodeDirty && !info.inL2)
                fail(line, "idle record left behind");
            return;
        }
        ++holders;
        if (info.pending >= _pending.capacity())
            fail(line, "pending index out of range");
        else if (!active && pendingOf(info).blocked.empty())
            fail(line, "pending entry held by an idle line");
    });
    for (const L2Line &l : _tags.raw()) {
        const Info *i = l.valid ? _info.find(lineNum(l.addr)) : nullptr;
        if (l.valid && (!i || !i->inL2))
            fail(lineNum(l.addr), "L2 line without an in-L2 record");
    }
    if (err.empty() && holders != _pending.inUse())
        err = strFormat("%s: %zu lines hold pending entries but %zu "
                        "are in use", name().c_str(), holders,
                        _pending.inUse());
    return err;
}

bool
L2Bank::maybeErase(Info &info, Addr addr)
{
    // No pending entry means not busy, not peActive, nothing blocked.
    if (info.pending != noPending || info.sharers != 0 ||
        info.nodeExcl || info.nodeDirty || info.inL2)
        return false;
    if (_lastInfo == &info)
        _lastInfo = nullptr;
    _info.erase(lineNum(addr));
    return true;
}

L2Bank::Pending &
L2Bank::holdPending(Info &info)
{
    if (info.pending == noPending)
        info.pending = _pending.acquire();
    return _pending[info.pending];
}

void
L2Bank::releasePending(Info &info)
{
    if (info.pending == noPending || info.busy || info.peActive ||
        hasBlocked(info))
        return;
    _pending.release(info.pending);
    info.pending = noPending;
}

L2Bank::Txn &
L2Bank::beginTxn(Info &info)
{
    Txn &txn = holdPending(info).txn;
    info.busy = true;
    txn = Txn{};
    return txn;
}

L2Bank::Txn &
L2Bank::beginPeTxn(Info &info)
{
    Txn &txn = holdPending(info).peTxn;
    info.peActive = true;
    txn = Txn{};
    return txn;
}

void
L2Bank::block(Info &info, IcsMsg msg)
{
    ++statBlockedReqs;
    holdPending(info).blocked.push_back(std::move(msg));
}

L2Line *
L2Bank::findChecked(Addr addr)
{
    L2Line *l = _tags.find(addr);
    if (!l || !l->parityBad)
        return l;
    // Parity detected on read. Injection only targets clean local
    // lines (see faultEligibleLines), so memory is current: discard
    // the copy and let the caller refetch. The cached partial-dir
    // interpretation dies with the data — it must be re-read from the
    // ECC bits, which also keeps the exclusive-grant shortcut from
    // firing with no data source on chip.
    if (l->dirty && _ctx.injector)
        _ctx.injector->raiseMachineCheck(strFormat(
            "%s: parity error on dirty L2 line %#llx", name().c_str(),
            static_cast<unsigned long long>(addr)));
    if (_ctx.injector)
        ++_ctx.injector->counters.l2ParityRefetch;
    // The eviction may erase the line's idle Info entry entirely
    // (callers must therefore call findChecked before taking an Info
    // reference). Re-find: a surviving entry needs its cached
    // partial-dir knowledge cleared; a re-created one starts at
    // PD_Unknown anyway.
    evictL2Line(*l);
    if (Info *i = findInfo(addr))
        i->pdir = Info::PD_Unknown;
    return nullptr;
}

bool
L2Bank::canProcess(const Info &info, const IcsMsg &msg) const
{
    switch (msg.type) {
      case IcsMsgType::GetS:
      case IcsMsgType::GetX:
      case IcsMsgType::Upgrade:
      case IcsMsgType::Wh64Req:
        return !info.busy && !info.peActive;
      case IcsMsgType::PeReadLocal:
      case IcsMsgType::PeInvalLocal:
        // Engine ops may interleave with an L1 request that is parked
        // waiting for that same engine (the engine serializes the
        // line inter-node, so this is race-free) but not with any
        // other transaction kind.
        return !info.peActive &&
               (!info.busy || pendingOf(info).txn.kind == Txn::L1Engine);
      default:
        return true;
    }
}

void
L2Bank::MsgEvent::process()
{
    PIR_PROF(L2);
    // Detach the payload and recycle before dispatching: the handler
    // may deliver or drain further messages through this pool.
    IcsMsg m = std::move(msg);
    bool retry = drainRetry;
    L2Bank *b = bank;
    b->_msgEvents.release(this);
    b->dispatch(std::move(m), retry);
}

void
L2Bank::icsDeliver(const IcsMsg &msg)
{
    PIR_PROF(L2);
    MsgEvent *ev = _msgEvents.acquire(this);
    ev->msg = msg;
    ev->drainRetry = false;
    scheduleIn(*ev, _clk.cycles(_p.lookupCycles));
}

void
L2Bank::dispatch(IcsMsg msg, bool retry)
{
    Addr a = msg.addr;
    switch (msg.type) {
      case IcsMsgType::GetS:
      case IcsMsgType::GetX:
      case IcsMsgType::Upgrade:
      case IcsMsgType::Wh64Req:
      case IcsMsgType::PeReadLocal:
      case IcsMsgType::PeInvalLocal: {
        Info &info = infoFor(a);
        bool engine_op = msg.type == IcsMsgType::PeReadLocal ||
                         msg.type == IcsMsgType::PeInvalLocal;
        // A fresh L1 request also queues behind the line's blocked
        // requests (engine ops may overtake them; see drainBlocked).
        // A retried L1 request that still cannot run goes back to the
        // head of the queue, uncounted.
        if (!canProcess(info, msg) ||
            (!retry && !engine_op && hasBlocked(info))) {
            if (retry && !engine_op)
                holdPending(info).blocked.push_front(std::move(msg));
            else
                block(info, std::move(msg));
            return;
        }
        if (msg.type == IcsMsgType::PeReadLocal)
            onPeReadLocal(std::move(msg));
        else if (msg.type == IcsMsgType::PeInvalLocal)
            onPeInvalLocal(std::move(msg));
        else
            dispatchL1Request(std::move(msg));
        break;
      }
      case IcsMsgType::FwdDone:
        onFwdDone(msg);
        break;
      case IcsMsgType::PeerFillS:
      case IcsMsgType::PeerFillX:
        onGatherData(msg);
        break;
      case IcsMsgType::PeData:
        onPeData(msg);
        break;
      case IcsMsgType::PeComplete: {
        Info &info = infoFor(a);
        if (!info.peActive || pendingOf(info).peTxn.kind != Txn::PeHeld)
            panic("%s: PeComplete without held line", name().c_str());
        finishPeTxn(info, a);
        break;
      }
      default:
        panic("%s: unexpected ICS message %s", name().c_str(),
              icsMsgTypeName(msg.type));
    }
    // A retried request that ran keeps the line's queue draining.
    if (retry)
        if (Info *info = findInfo(a))
            drainBlocked(*info);
}

void
L2Bank::handleVictim(const IcsMsg &msg)
{
    Info *vi = findInfo(msg.victimAddr);
    std::uint32_t bit = 1u << msg.l1Id;
    if (!vi || !(vi->sharers & bit))
        return; // already invalidated under us
    Info &v = *vi;

    bool is_owner = v.ownerL1 == msg.l1Id && !v.inL2;

    v.sharers &= ~bit;
    if (v.ownerL1 == msg.l1Id) {
        v.l1Excl = false;
        v.ownerL1 = v.sharers ? std::countr_zero(v.sharers) : -1;
    }
    // The L1 surrenders its copy here, at the serialization point; it
    // records its own VictimDrop only when the displacing fill lands.
    PIR_TRACE(_ctx.tracer, TraceEvent{.tick = curTick(),
                                      .kind = TraceKind::VictimTaken,
                                      .node = _ctx.node,
                                      .aux = msg.l1Id,
                                      .addr = msg.victimAddr,
                                      .mask = v.sharers});

    if (v.busy || v.peActive) {
        // A transaction is active on the victim line. Any data the
        // departing L1 holds is captured by that transaction (forward
        // or gather), so the replacement needs no write-back.
        return;
    }
    if (is_owner) {
        // Owner replacement: the L2 captures the shipped data right
        // here at its serialization point (victim-cache fill, even
        // for clean lines). Installing synchronously — rather than
        // blocking the line until a separate write-back arrives —
        // keeps pending entries free of cross-line dependences (the
        // victim's availability never waits on the displacing fill).
        if (!msg.hasData)
            panic("%s: owner victim without shipped data",
                  name().c_str());
        if (msg.parityVictim) {
            // Parity refetch: the departing copy failed parity, so the
            // shipped payload is untrusted and must not be installed.
            // The line was clean in the L1; memory is current unless
            // the chip as a whole held newer data (nodeDirty), in
            // which case the last good copy is gone.
            if (v.nodeDirty && _ctx.injector)
                _ctx.injector->raiseMachineCheck(strFormat(
                    "%s: parity loss of node-dirty line %#llx",
                    name().c_str(),
                    static_cast<unsigned long long>(msg.victimAddr)));
            maybeErase(v, msg.victimAddr);
            return;
        }
        ++statWbInstalls;
        bool dirty = msg.victimDirty || v.nodeDirty;
        v.nodeDirty = false;
        // Seeded fault: the shipped victim data is dropped on the
        // floor instead of installed — the only up-to-date copy of a
        // (possibly dirty) line is lost.
        if (!(_ctx.faults &&
              _ctx.faults->fire(ProtocolFault::DropVictimWriteback)))
            installL2(v, msg.victimAddr, msg.data, dirty);
        return;
    }
    maybeErase(v, msg.victimAddr);
}

void
L2Bank::dispatchL1Request(IcsMsg msg)
{
    // The victim piggyback is resolved first, at this serialization
    // point.
    if (msg.hasVictim)
        handleVictim(msg);
    Addr a = msg.addr;
    // Parity check first: discarding a bad line may erase the idle
    // Info entry, so the reference must be taken afterwards.
    L2Line *l2l = findChecked(a);
    Info &info = infoFor(a);

    if (msg.type == IcsMsgType::Upgrade &&
        !(info.sharers & (1u << msg.l1Id))) {
        // The requester's shared copy was invalidated while the
        // upgrade was in flight: treat as a full GetX (data reply).
        msg.type = IcsMsgType::GetX;
    }

    if (msg.type == IcsMsgType::GetS) {
        if (l2l) {
            ++statL2Hit;
            _tags.touch(*l2l);
            replyFill(msg, l2l->data, true, false, FillSource::L2Hit);
            // Seeded fault: the fill is sent but the duplicate tags
            // never record the new sharer — a later exclusive grant
            // will not invalidate this L1's copy.
            if (!(_ctx.faults &&
                  _ctx.faults->fire(ProtocolFault::SkipDupTagUpdate)))
                recordOwner(info, a, msg.l1Id, false);
            return;
        }
        if (info.sharers) {
            // Forward to the on-chip owner; data flows L1-to-L1.
            if (info.ownerL1 < 0 || info.ownerL1 == msg.l1Id)
                panic("%s: bad owner %d for fwd", name().c_str(),
                      info.ownerL1);
            forwardToOwner(info, std::move(msg), false);
            return;
        }
        // No on-chip copy: fill the L1 directly from memory without
        // allocating in the L2 (non-inclusive hierarchy).
    } else {
        // GetX / Wh64Req / Upgrade: exclusive-permission requests.
        if (isInstrL1(msg.l1Id))
            panic("%s: exclusive request from iL1", name().c_str());
        if (info.l1Excl) {
            // Sole owner is another on-chip L1: forward.
            if (info.ownerL1 < 0 || info.ownerL1 == msg.l1Id)
                panic("%s: bad excl owner %d", name().c_str(),
                      info.ownerL1);
            forwardToOwner(info, std::move(msg), true);
            return;
        }
        bool node_safe = isLocal(a)
                             ? (_p.pdirShortcut &&
                                info.pdir == Info::PD_None)
                             : info.nodeExcl;
        if (node_safe) {
            if (isLocal(a))
                ++statPdirShortcut;
            grantLocalExclusive(std::move(msg), nullptr);
            return;
        }
    }

    Txn &txn = beginTxn(info);
    txn.req = std::move(msg);
    if (isLocal(a)) {
        // Read the line with its directory (free with the ECC bits)
        // and decide there whether remote action is needed.
        txn.kind = Txn::L1Mem;
        _mc.readLine(a, [this, a](const LineData &d, std::uint64_t dir) {
            onMemData(a, d, dir);
        });
    } else {
        bool have_local_data = l2l != nullptr || info.sharers != 0;
        PeOp op = txn.req.type == IcsMsgType::GetS ? PeOp::ReqS
                  : have_local_data                 ? PeOp::ReqUpgrade
                                                    : PeOp::ReqX;
        sendEngine(txn, op, false);
    }
}

void
L2Bank::forwardToOwner(Info &info, IcsMsg req, bool excl)
{
    ++statL2Fwd;
    sendFwd(req, excl, info.ownerL1, req.l1Id);
    recordOwner(info, req.addr, req.l1Id, excl);
    Txn &txn = beginTxn(info);
    txn.kind = Txn::L1Fwd;
    txn.req = std::move(req);
}

void
L2Bank::grantLocalExclusive(IcsMsg req, const LineData *mem_data)
{
    Addr a = req.addr;
    // findChecked before infoFor: discarding a parity-bad line may
    // erase the idle Info entry (see dispatchL1Request).
    L2Line *l2l = findChecked(a);
    Info &info = infoFor(a);
    std::uint32_t bit = 1u << req.l1Id;
    bool still_sharer =
        req.type == IcsMsgType::Upgrade && (info.sharers & bit);

    if (!still_sharer && !l2l && info.sharers) {
        // Data lives only in peer S copies: forward to the owner to
        // capture it, invalidate the rest.
        int owner = info.ownerL1;
        if (owner < 0)
            panic("%s: sharers without owner", name().c_str());
        invalL1Sharers(info, a, (1u << owner) | bit);
        forwardToOwner(info, std::move(req), true);
        markNodeExclusive(info, a);
        return;
    }

    invalL1Sharers(info, a, bit);

    if (still_sharer) {
        invalL2Copy(info, a);
        replyUpgradeAck(req);
    } else if (l2l) {
        ++statL2Hit;
        LineData data = l2l->data;
        invalL2Copy(info, a);
        replyFill(req, data, true, true, FillSource::L2Hit);
    } else if (mem_data) {
        ++statMemLocal;
        replyFill(req, *mem_data, req.type != IcsMsgType::Wh64Req, true,
                  FillSource::MemLocal);
    } else {
        panic("%s: exclusive grant with no data source for %#llx",
              name().c_str(), static_cast<unsigned long long>(a));
    }
    recordOwner(info, a, req.l1Id, true);
    info.nodeDirty = false;
    markNodeExclusive(info, a);

    // Called from dispatch (no transaction yet) or to complete the
    // line's memory read or engine trip.
    if (info.busy)
        finishTxn(info, a);
}

void
L2Bank::onMemData(Addr addr, const LineData &data, std::uint64_t dir_bits)
{
    Info &info = infoFor(addr);
    if (!info.busy || pendingOf(info).txn.kind != Txn::L1Mem)
        panic("%s: stray memory data for %#llx", name().c_str(),
              static_cast<unsigned long long>(addr));
    Txn &txn = pendingOf(info).txn;
    DirEntry dir = decodeDirEntry(_ctx.injector, _ctx.node, addr,
                                  dir_bits, _amap.numNodes);
    IcsMsg req = txn.req;
    bool read_req = req.type == IcsMsgType::GetS;

    if (read_req && dir.state() != DirState::Exclusive) {
        ++statMemLocal;
        bool excl = dir.empty() && !isInstrL1(req.l1Id);
        replyFill(req, data, true, excl, FillSource::MemLocal);
        recordOwner(info, addr, req.l1Id, excl);
        info.pdir = dir.empty() ? Info::PD_None : Info::PD_Shared;
        finishTxn(info, addr);
        return;
    }
    if (!read_req && dir.empty()) {
        info.pdir = Info::PD_None;
        grantLocalExclusive(req, &data);
        return;
    }
    // A remote node owns the line, or (for an exclusive request)
    // shares it: the home engine re-reads the directory at its own
    // serialization point and completes the remote side.
    sendEngine(txn, read_req ? PeOp::ReqS : PeOp::ReqX, true);
    // Engine ops blocked during the memory read may now interleave
    // with the parked transaction.
    drainBlocked(info);
}

void
L2Bank::onPeData(const IcsMsg &msg)
{
    Addr a = msg.addr;
    Info &info = infoFor(a);
    if (!info.busy || pendingOf(info).txn.kind != Txn::L1Engine)
        panic("%s: stray PeData for %#llx", name().c_str(),
              static_cast<unsigned long long>(a));
    IcsMsg req = pendingOf(info).txn.req;

    // Count the remote service for the miss breakdown.
    if (msg.source == FillSource::MemRemote)
        ++statMemRemote;
    else if (msg.source == FillSource::RemoteDirty)
        ++statRemoteDirty;
    else if (msg.source == FillSource::MemLocal)
        ++statMemLocal;

    if (req.type == IcsMsgType::GetS) {
        replyFill(req, msg.data, true, msg.exclusive, msg.source);
        recordOwner(info, a, req.l1Id, msg.exclusive);
        if (isLocal(a))
            info.pdir = msg.exclusive ? Info::PD_None : Info::PD_Shared;
        else
            info.nodeExcl = msg.exclusive;
        finishTxn(info, a);
        return;
    }

    // Exclusive-class completion.
    markNodeExclusive(info, a);
    if (!msg.hasData) {
        // Permission-only grant: the data is already on chip.
        grantLocalExclusive(req, nullptr);
        return;
    }
    // Fresh data granted (RepX / remote dirty): any local copies are
    // stale.
    invalL1Sharers(info, a, 0);
    invalL2Copy(info, a);
    info.nodeDirty = false;
    replyFill(req, msg.data, true, true, msg.source);
    recordOwner(info, a, req.l1Id, true);
    finishTxn(info, a);
}

void
L2Bank::onFwdDone(const IcsMsg &msg)
{
    Addr a = msg.addr;
    Info &info = infoFor(a);
    if (info.peActive && pendingOf(info).peTxn.kind == Txn::PeReadFwd) {
        Txn &pe = pendingOf(info).peTxn;
        pe.gatherDirty = msg.victimDirty || info.nodeDirty ||
                         pe.gatherDirty;
        // Apply the requested mode now that data is captured.
        if (pe.req.mode == PeLocalMode::Excl) {
            invalL1Sharers(info, a, 0);
            invalL2Copy(info, a);
            info.nodeExcl = false;
            info.nodeDirty = false;
        } else {
            // The owning L1 downgraded to S while supplying the data.
            info.l1Excl = false;
            info.nodeExcl = false;
            info.nodeDirty = false; // home writes memory current
        }
        info.pdir = Info::PD_Unknown;
        pe.kind = Txn::PeRead;
        completePeRead(info, a);
        return;
    }
    if (!info.busy || pendingOf(info).txn.kind != Txn::L1Fwd)
        panic("%s: FwdDone without forward txn", name().c_str());
    if (pendingOf(info).txn.req.type == IcsMsgType::GetS) {
        // Dirty data may now live in shared L1 copies.
        info.nodeDirty = info.nodeDirty || msg.victimDirty;
    } else {
        // Exclusive transfer: the new M holder carries dirtiness.
        info.nodeDirty = false;
    }
    finishTxn(info, a);
}

void
L2Bank::onGatherData(const IcsMsg &msg)
{
    Info &info = infoFor(msg.addr);
    if (!info.peActive || pendingOf(info).peTxn.kind != Txn::PeReadFwd)
        panic("%s: stray gather data", name().c_str());
    Txn &pe = pendingOf(info).peTxn;
    pe.data = msg.data;
    pe.haveData = true;
}

void
L2Bank::installL2(Info &info, Addr addr, const LineData &data, bool dirty)
{
    if (_tags.find(addr))
        panic("%s: double L2 install", name().c_str());
    PIR_TRACE(_ctx.tracer, TraceEvent{.tick = curTick(),
                                      .kind = TraceKind::WbInstall,
                                      .node = _ctx.node,
                                      .state = dirty ? 1u : 0u,
                                      .addr = addr});
    // Choose a victim way whose line has no active transaction.
    L2Line *slot = nullptr;
    for (unsigned attempt = 0; attempt < _p.assoc; ++attempt) {
        L2Line &cand = _tags.victimFor(addr);
        if (!cand.valid || !lineBusy(cand.addr)) {
            slot = &cand;
            break;
        }
    }
    if (!slot)
        panic("%s: all L2 ways busy in set of %#llx", name().c_str(),
              static_cast<unsigned long long>(addr));
    if (slot->valid)
        evictL2Line(*slot);
    _tags.install(*slot, addr);
    info.inL2 = true;
    slot->data = data;
    slot->dirty = dirty;
    slot->parityBad = false;
}

void
L2Bank::evictL2Line(L2Line &line)
{
    ++statL2Evictions;
    Addr a = line.addr;
    Info &info = infoFor(a);
    PIR_TRACE(_ctx.tracer, TraceEvent{.tick = curTick(),
                                      .kind = TraceKind::L2Evict,
                                      .node = _ctx.node,
                                      .state = line.dirty ? 1u : 0u,
                                      .addr = a,
                                      .mask = info.sharers});
    if (info.sharers) {
        // L1 copies remain: ownership stays with the last-requester
        // L1; remember dirtiness so its eventual write-back installs
        // dirty.
        info.nodeDirty = info.nodeDirty || line.dirty;
        dropL2Copy(info, line);
        return;
    }
    // Node-level eviction.
    if (isLocal(a)) {
        if (line.dirty || info.nodeDirty) {
            LineData d = line.data;
            _mc.writeLine(a, &d, nullptr);
        }
    } else if (info.nodeExcl) {
        // Exclusive owner gives the line back to its home; the remote
        // engine buffers the data until the home acknowledges. The
        // buffer is populated synchronously so a forwarded request
        // racing with this eviction is always serviceable.
        if (_wbBufferHook)
            _wbBufferHook(a, line.data);
        IcsMsg wb;
        wb.type = IcsMsgType::ToRemoteEngine;
        wb.addr = a;
        wb.peOp = PeOp::WbExcl;
        wb.hasData = true;
        wb.data = line.data;
        wb.victimDirty = line.dirty || info.nodeDirty;
        wb.srcPort = _myPort;
        wb.dstPort = remoteEnginePort;
        wb.reqId = nextReqId();
        _ics.send(std::move(wb));
        info.nodeExcl = false;
        info.nodeDirty = false;
    }
    info.nodeDirty = false;
    dropL2Copy(info, line);
    maybeErase(info, a);
}

void
L2Bank::dropL2Copy(Info &info, L2Line &line)
{
    _tags.invalidate(line);
    info.inL2 = false;
}

void
L2Bank::onPeReadLocal(IcsMsg msg)
{
    Addr a = msg.addr;
    Info &info = infoFor(a);
    Txn &pe = beginPeTxn(info);
    pe.kind = Txn::PeRead;
    pe.req = msg;
    L2Line *l2l = findChecked(a);
    pe.localPresent = l2l || info.sharers != 0;

    bool need_data = msg.mode != PeLocalMode::DirOnly;

    if (need_data && !l2l && info.sharers) {
        // Gather from the owning L1; the peer fill targets this bank.
        int owner = info.ownerL1;
        bool excl = msg.mode == PeLocalMode::Excl;
        sendFwd(msg, excl, owner, _myPort);
        if (excl)
            invalL1Sharers(info, a, 1u << owner);
        pe.kind = Txn::PeReadFwd;
        // Remaining mode effects are applied at FwdDone.
    } else {
        if (need_data && l2l) {
            pe.haveData = true;
            pe.data = l2l->data;
            pe.gatherDirty = l2l->dirty || info.nodeDirty;
        }
        if (msg.mode == PeLocalMode::Excl) {
            invalL1Sharers(info, a, 0);
            invalL2Copy(info, a);
            info.nodeExcl = false;
            info.nodeDirty = false;
            info.pdir = Info::PD_Unknown;
        } else if (msg.mode == PeLocalMode::Share) {
            if (l2l)
                l2l->dirty = false; // home memory becomes current
            info.nodeExcl = false;
            info.nodeDirty = false;
            info.pdir = Info::PD_Unknown;
        } else {
            info.pdir = Info::PD_Unknown;
        }
    }

    if (isLocal(a)) {
        // The directory comes with the line's ECC bits.
        _mc.readLine(a, [this, a](const LineData &d, std::uint64_t dir) {
            Info &i = infoFor(a);
            if (!i.peActive)
                panic("%s: stray dir read", name().c_str());
            Txn &t = pendingOf(i).peTxn;
            t.dirBits = dir;
            t.haveDir = true;
            if (!t.haveData && !t.localPresent &&
                t.req.mode != PeLocalMode::DirOnly) {
                t.data = d;
                t.haveData = true;
            }
            if (t.kind == Txn::PeRead)
                completePeRead(i, a);
        });
    } else {
        pe.haveDir = true; // not applicable off-home
        if (pe.kind == Txn::PeRead)
            completePeRead(info, a);
    }
}

void
L2Bank::completePeRead(Info &info, Addr addr)
{
    Txn &t = pendingOf(info).peTxn;
    bool need_data = t.req.mode != PeLocalMode::DirOnly;
    bool dir_needed = isLocal(addr);
    if ((need_data && !t.haveData && t.localPresent) ||
        (dir_needed && !t.haveDir))
        return; // still gathering
    // Off-home reads may find the chip empty when a node-level
    // eviction raced with the forwarded request; the reply reports
    // localPresent=false and the remote engine falls back to its
    // write-back buffer (populated synchronously at eviction).

    IcsMsg rsp;
    rsp.type = IcsMsgType::PeReadLocalRsp;
    rsp.addr = addr;
    rsp.srcPort = _myPort;
    rsp.dstPort = t.req.srcPort;
    rsp.reqId = t.req.reqId;
    rsp.hasData = t.haveData;
    rsp.data = t.data;
    rsp.dirBits = t.dirBits;
    rsp.localPresent = t.localPresent;
    rsp.localDirty = t.gatherDirty;
    _ics.send(std::move(rsp));
    if (t.req.holdLine) {
        // Keep the pending entry blocked; the engine releases it with
        // PeComplete when its transaction (directory update, memory
        // write, forwarded data) is complete.
        t.kind = Txn::PeHeld;
        return;
    }
    finishPeTxn(info, addr);
}

void
L2Bank::onPeInvalLocal(IcsMsg msg)
{
    Addr a = msg.addr;
    Info &info = infoFor(a);
    bool acquiring_excl =
        info.busy && pendingOf(info).txn.kind == Txn::L1Engine &&
        pendingOf(info).txn.req.type != IcsMsgType::GetS;
    bool apply = !info.l1Excl && !info.nodeExcl && !acquiring_excl;
    PIR_TRACE(_ctx.tracer, TraceEvent{.tick = curTick(),
                                      .kind = TraceKind::CmiInval,
                                      .node = _ctx.node,
                                      .state = apply ? 1u : 0u,
                                      .addr = a,
                                      .mask = info.sharers});
    if (apply) {
        // Genuine invalidation of clean shared copies. Seeded fault:
        // the invalidation is acknowledged and the node-level state
        // cleared, but the L1 invalidations are skipped — stale L1
        // copies survive the epoch change and keep servicing hits.
        if (!(info.sharers && _ctx.faults &&
              _ctx.faults->fire(ProtocolFault::StaleCmiApply)))
            invalL1Sharers(info, a, 0);
        invalL2Copy(info, a);
        info.nodeDirty = false;
        info.pdir = Info::PD_Unknown;
    }
    // Otherwise the invalidation is stale (raced with a newer grant;
    // no point-to-point order) or provably resolvable by the pending
    // upgrade's reply: the home serializes the line, so if it still
    // answers our in-flight upgrade permission-only, it saw us as a
    // sharer after this invalidation's epoch — our copies are newer
    // and stay; if it answers with data, the data grant invalidates
    // local copies anyway. Acknowledge and keep going.
    IcsMsg done;
    done.type = IcsMsgType::PeWbAck;
    done.addr = a;
    done.srcPort = _myPort;
    done.dstPort = msg.srcPort;
    done.reqId = msg.reqId;
    _ics.send(std::move(done));
    maybeErase(info, a);
}

void
L2Bank::replyFill(const IcsMsg &req, const LineData &data, bool has_data,
                  bool exclusive, FillSource source)
{
    IcsMsg rsp;
    rsp.type = exclusive ? IcsMsgType::FillX : IcsMsgType::FillS;
    rsp.addr = req.addr;
    rsp.srcPort = _myPort;
    rsp.dstPort = req.l1Id;
    rsp.l1Id = req.l1Id;
    rsp.hasData = has_data;
    if (has_data)
        rsp.data = data;
    rsp.exclusive = exclusive;
    rsp.source = source;
    rsp.reqId = req.reqId;
    _ics.send(std::move(rsp));
}

void
L2Bank::replyUpgradeAck(const IcsMsg &req)
{
    IcsMsg rsp;
    rsp.type = IcsMsgType::UpgradeAck;
    rsp.addr = req.addr;
    rsp.srcPort = _myPort;
    rsp.dstPort = req.l1Id;
    rsp.l1Id = req.l1Id;
    rsp.source = FillSource::L2Hit;
    rsp.reqId = req.reqId;
    _ics.send(std::move(rsp));
}

void
L2Bank::sendFwd(const IcsMsg &req, bool excl, int owner, int requester)
{
    IcsMsg fwd;
    fwd.type = excl ? IcsMsgType::FwdGetX : IcsMsgType::FwdGetS;
    fwd.addr = req.addr;
    fwd.srcPort = _myPort;
    fwd.dstPort = owner;
    fwd.l1Id = requester;
    fwd.reqId = req.reqId;
    _ics.send(std::move(fwd));
}

void
L2Bank::recordOwner(Info &info, Addr addr, int l1, bool excl)
{
    std::uint32_t bit = 1u << l1;
    info.sharers = excl ? bit : info.sharers | bit;
    info.ownerL1 = l1;
    info.l1Excl = excl;
    PIR_TRACE(_ctx.tracer, TraceEvent{.tick = curTick(),
                                      .kind = TraceKind::OwnerChange,
                                      .node = _ctx.node,
                                      .aux = l1,
                                      .addr = addr,
                                      .mask = info.sharers});
}

void
L2Bank::markNodeExclusive(Info &info, Addr addr)
{
    if (isLocal(addr))
        info.pdir = Info::PD_None;
    else
        info.nodeExcl = true;
}

void
L2Bank::invalL1Sharers(Info &info, Addr addr, std::uint32_t keep)
{
    for (int l1 = 0; l1 < 16; ++l1) {
        if (!(info.sharers & ~keep & (1u << l1)))
            continue;
        PIR_TRACE(_ctx.tracer, TraceEvent{.tick = curTick(),
                                          .kind = TraceKind::InvalSent,
                                          .node = _ctx.node,
                                          .aux = l1,
                                          .addr = addr,
                                          .mask = info.sharers});
        info.sharers &= ~(1u << l1);
        // Seeded fault: the dup-tag bit is cleared but the
        // invalidation message is never sent.
        if (_ctx.faults && _ctx.faults->fire(ProtocolFault::DropInval))
            continue;
        IcsMsg inv;
        inv.type = IcsMsgType::Inval;
        inv.addr = addr;
        inv.srcPort = _myPort;
        inv.dstPort = l1;
        _ics.send(std::move(inv));
    }
    if (info.ownerL1 >= 0 && !(info.sharers & (1u << info.ownerL1))) {
        info.l1Excl = false;
        info.ownerL1 =
            info.sharers ? std::countr_zero(info.sharers) : -1;
    }
}

void
L2Bank::invalL2Copy(Info &info, Addr addr)
{
    if (!info.inL2)
        return;
    L2Line *l2l = _tags.find(addr);
    info.nodeDirty = info.nodeDirty || l2l->dirty;
    dropL2Copy(info, *l2l);
}

void
L2Bank::sendEngine(Txn &txn, PeOp op, bool to_home)
{
    txn.kind = Txn::L1Engine;
    ++statEngineTrips;
    IcsMsg m;
    m.type = to_home ? IcsMsgType::ToHomeEngine
                     : IcsMsgType::ToRemoteEngine;
    m.addr = txn.req.addr;
    m.peOp = op;
    m.l1Id = txn.req.l1Id;
    m.reqId = txn.req.reqId;
    m.srcPort = _myPort;
    m.dstPort = to_home ? homeEnginePort : remoteEnginePort;
    _ics.send(std::move(m));
}

void
L2Bank::finishTxn(Info &info, Addr addr)
{
    info.busy = false;
    releasePending(info);
    if (!maybeErase(info, addr))
        drainBlocked(info);
}

void
L2Bank::finishPeTxn(Info &info, Addr addr)
{
    info.peActive = false;
    releasePending(info);
    if (!maybeErase(info, addr))
        drainBlocked(info);
}

void
L2Bank::drainBlocked(Info &info)
{
    if (!hasBlocked(info))
        return;
    // Oldest-first, but engine-initiated ops may overtake blocked L1
    // requests (they interleave with a parked L1Engine transaction;
    // holding them back would deadlock the engines).
    auto &q = pendingOf(info).blocked;
    std::size_t pick = q.size();
    for (std::size_t qi = 0; qi < q.size(); ++qi) {
        if (canProcess(info, q[qi])) {
            pick = qi;
            break;
        }
    }
    if (pick == q.size())
        return;
    IcsMsg next = std::move(q[pick]);
    q.erase(pick);
    releasePending(info);
    MsgEvent *ev = _msgEvents.acquire(this);
    ev->msg = std::move(next);
    ev->drainRetry = true;
    scheduleIn(*ev, _clk.cycles(1));
}

bool
L2Bank::faultEligible(const L2Line &l)
{
    return l.valid && !l.dirty && !l.parityBad && isLocal(l.addr) &&
           !lineBusy(l.addr);
}

unsigned
L2Bank::faultEligibleLines()
{
    unsigned n = 0;
    for (const L2Line &l : _tags.raw())
        n += faultEligible(l);
    return n;
}

bool
L2Bank::faultMarkParity(unsigned nth, unsigned bit, bool corrupt_data)
{
    for (L2Line &l : _tags.raw()) {
        if (!faultEligible(l) || nth--)
            continue;
        l.parityBad = true;
        if (corrupt_data)
            l.data.bytes[(bit / 8) % lineBytes] ^=
                static_cast<std::uint8_t>(1u << (bit % 8));
        return true;
    }
    return false;
}

} // namespace piranha
