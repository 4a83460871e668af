#include "system/chip.h"

namespace piranha {

PiranhaChip::PiranhaChip(EventQueue &eq, std::string name, NodeId node,
                         const AddressMap &amap, const ChipParams &params,
                         Network *net, FaultInjector *injector)
    : SimObject(eq, std::move(name)), _p(params),
      _ctx{node, params.tracer, params.faults, injector}, _amap(amap),
      _clock(params.clockMhz), _stats(this->name())
{
    if (_p.cpus == 0 || _p.cpus > cpusPerChipMax)
        fatal("chip supports 1..8 CPUs (got %u)", _p.cpus);
    if (_amap.banksPerChip != 8)
        fatal("Piranha chips have 8 L2 banks");

    _ics = std::make_unique<IntraChipSwitch>(
        eq, this->name() + ".ics", _ctx, icsPortCount, _clock,
        _p.icsPipeCycles);

    auto bank_port = [amap = _amap](Addr a) {
        return l2Port(amap.bank(a));
    };

    _l1s.resize(2 * _p.cpus);
    for (unsigned cpu = 0; cpu < _p.cpus; ++cpu) {
        int dp = dl1Port(cpu);
        int ip = il1Port(cpu);
        _l1s[static_cast<size_t>(dp)] = std::make_unique<L1Cache>(
            eq, strFormat("%s.cpu%u.dl1", this->name().c_str(), cpu),
            _ctx, _p.l1d, _clock, *_ics, dp, bank_port);
        _l1s[static_cast<size_t>(ip)] = std::make_unique<L1Cache>(
            eq, strFormat("%s.cpu%u.il1", this->name().c_str(), cpu),
            _ctx, _p.l1i, _clock, *_ics, ip, bank_port);
        _ics->connect(dp, _l1s[static_cast<size_t>(dp)].get());
        _ics->connect(ip, _l1s[static_cast<size_t>(ip)].get());
    }

    for (unsigned b = 0; b < 8; ++b) {
        _mcs.push_back(std::make_unique<MemCtrl>(
            eq, strFormat("%s.mc%u", this->name().c_str(), b), _ctx,
            _store, _p.rdram));
        _banks.push_back(std::make_unique<L2Bank>(
            eq, strFormat("%s.l2b%u", this->name().c_str(), b), _ctx,
            _p.l2, _clock, *_ics, l2Port(b), _amap, *_mcs.back()));
        _ics->connect(l2Port(b), _banks.back().get());
    }

    EngineConfig ecfg;
    ecfg.tsrfEntries = _p.tsrfEntries;
    ecfg.amap = _amap;
    ecfg.cmiFanout = _p.cmiFanout;
    ecfg.mcFor = [this](Addr a) { return _mcs[_amap.bank(a)].get(); };
    if (net) {
        ecfg.netOut = [net](NetPacket &&p) { net->inject(std::move(p)); };
    }

    _he = std::make_unique<ProtocolEngine>(
        eq, this->name() + ".he", _ctx, ecfg, _clock, *_ics,
        homeEnginePort);
    _re = std::make_unique<ProtocolEngine>(
        eq, this->name() + ".re", _ctx, ecfg, _clock, *_ics,
        remoteEnginePort);
    _ics->connect(homeEnginePort, _he.get());
    _ics->connect(remoteEnginePort, _re.get());
    installHomeProgram(*_he);
    installRemoteProgram(*_re);

    // Node-exclusive evictions populate the remote engine's
    // write-back buffer synchronously (no-NAK guarantee).
    ProtocolEngine *re = _re.get();
    FaultState *faults = _ctx.faults;
    for (auto &bank : _banks) {
        bank->setWbBufferHook(
            [re, faults](Addr a, const LineData &d, bool dirty) {
                ProtocolEngine::WbBuf &buf = re->wbBuffer[lineNum(a)];
                buf.data = d;
                buf.dirty = dirty;
                // Seeded fault: the buffer is populated with stale
                // (zeroed) contents — as if captured before the last
                // stores — so a forward racing the write-back window
                // is serviced with garbage.
                if (faults &&
                    faults->fire(ProtocolFault::WbRaceStaleData))
                    buf.data = LineData{};
                buf.fwdServiced = false;
                buf.releaseAfterFwd = false;
            });
    }
}

void
PiranhaChip::deliverNet(const NetPacket &pkt)
{
    switch (pkt.type) {
      case NetMsgType::ReqS:
      case NetMsgType::ReqX:
      case NetMsgType::ReqUpgrade:
      case NetMsgType::ReqWh64:
      case NetMsgType::Wb:
      case NetMsgType::ShareWb:
        _he->deliverNet(pkt);
        break;
      case NetMsgType::FwdS:
      case NetMsgType::FwdX:
      case NetMsgType::Inval:
        _re->deliverNet(pkt);
        break;
      default:
        // Reply-class: deliver to the engine holding the transaction.
        if (_re->hasActiveTransaction(pkt.addr))
            _re->deliverNet(pkt);
        else
            _he->deliverNet(pkt);
        break;
    }
}

void
PiranhaChip::regStats(StatGroup &parent)
{
    _ics->regStats(_stats);
    for (auto &l1 : _l1s)
        if (l1)
            l1->regStats(_stats);
    for (auto &b : _banks)
        b->regStats(_stats);
    for (auto &m : _mcs)
        m->regStats(_stats);
    _he->regStats(_stats);
    _re->regStats(_stats);
    parent.addChild(&_stats);
}

PiranhaChip::MissBreakdown
PiranhaChip::missBreakdown() const
{
    MissBreakdown b;
    for (const auto &bank : _banks) {
        b.l2Hit += bank->statL2Hit.value();
        b.l2Fwd += bank->statL2Fwd.value();
        b.memLocal += bank->statMemLocal.value();
        b.memRemote += bank->statMemRemote.value();
        b.remoteDirty += bank->statRemoteDirty.value();
    }
    return b;
}

} // namespace piranha
