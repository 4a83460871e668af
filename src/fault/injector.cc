#include "fault/injector.h"

#include <algorithm>
#include <cstring>

#include "cache/l1_cache.h"
#include "cache/l2_bank.h"
#include "ics/intra_chip_switch.h"
#include "mem/ecc.h"
#include "mem/mem_ctrl.h"
#include "noc/network.h"
#include "sim/logging.h"

namespace piranha {

namespace {

constexpr unsigned kBlocksPerLine = lineBytes / 32; // 256-bit blocks

/** Extra latency of an IcsDelay / NetDelay fault. */
constexpr Tick kIcsDelay = 200 * ticksPerNs;
constexpr Tick kNetDelay = 2 * ticksPerUs;

/** Retransmit timeout for NetDrop: the injector re-injects the lost
 *  packet this long after the drop, modeling the protocol's
 *  timeout-and-retry on inter-chip links. */
constexpr Tick kNetRetry = 4 * ticksPerUs;

/** Channel-busy duration of a MemStall fault. */
constexpr Tick kMemStall = 1 * ticksPerUs;

EccBlock
blockOf(const LineData &d, unsigned block)
{
    EccBlock b;
    std::memcpy(b.data(), d.bytes.data() + block * 32, 32);
    return b;
}

void
storeBlock(LineData &d, unsigned block, const EccBlock &b)
{
    std::memcpy(d.bytes.data() + block * 32, b.data(), 32);
}

} // namespace

FaultInjector::FaultInjector(EventQueue &eq, std::string name,
                             const FaultPlanConfig &plan, unsigned nodes)
    : SimObject(eq, std::move(name)), _plan(plan), _numNodes(nodes),
      _rng(plan.seed, 0x5eed5eedULL), _sites(nodes),
      _icsArmed(nodes, Transport::None)
{
}

void
FaultInjector::attachNode(unsigned node, NodeSites sites)
{
    _sites.at(node) = std::move(sites);
}

void
FaultInjector::attachNetwork(Network *net)
{
    _net = net;
    if (net)
        net->setFaultInjector(this);
}

void
FaultInjector::arm()
{
    std::vector<PlannedFault> schedule = _plan.planned;
    if (schedule.empty() && _plan.count > 0) {
        // Draw the whole schedule up front in one RNG pass: the
        // schedule is then a pure function of the seed, independent
        // of anything the simulation does.
        std::vector<FaultKind> kinds = _plan.kinds;
        if (kinds.empty())
            for (unsigned k = 0;
                 k < static_cast<unsigned>(FaultKind::kNumKinds); ++k)
                kinds.push_back(static_cast<FaultKind>(k));
        Tick span = _plan.windowEnd > _plan.windowStart
                        ? _plan.windowEnd - _plan.windowStart
                        : 1;
        for (unsigned i = 0; i < _plan.count; ++i) {
            PlannedFault pf;
            pf.kind = kinds[_rng.below(
                static_cast<std::uint32_t>(kinds.size()))];
            pf.node = _rng.below(_numNodes);
            pf.at = _plan.windowStart + _rng.next64() % span;
            schedule.push_back(pf);
        }
    }
    for (const PlannedFault &pf : schedule) {
        Tick at = std::max(pf.at, curTick());
        eventQueue().schedule(at, [this, pf] { fire(pf); });
    }
}

void
FaultInjector::fire(const PlannedFault &pf)
{
    switch (pf.kind) {
      case FaultKind::MemDataFlip:
      case FaultKind::MemDataDoubleFlip:
      case FaultKind::MemCheckFlip:
      case FaultKind::MemDirFlip:
        fireMem(pf);
        break;
      case FaultKind::L1TagFlip:
      case FaultKind::L1DataFlip:
      case FaultKind::L2TagFlip:
      case FaultKind::L2DataFlip:
        fireCache(pf);
        break;
      case FaultKind::IcsDrop:
      case FaultKind::IcsDup:
      case FaultKind::IcsDelay:
        fireIcs(pf);
        break;
      case FaultKind::NetDrop:
      case FaultKind::NetDup:
      case FaultKind::NetDelay:
        fireNet(pf);
        break;
      case FaultKind::MemStall:
        fireMemStall(pf);
        break;
      case FaultKind::kNumKinds:
        break;
    }
}

bool
FaultInjector::pickLine(unsigned node, Addr &addr)
{
    BackingStore *st = _sites.at(node).store;
    if (!st || st->touchedLines() == 0)
        return false;
    std::uint32_t pick = _rng.below(
        static_cast<std::uint32_t>(st->touchedLines()));
    std::uint32_t i = 0;
    bool found = false;
    st->forEachLine([&](Addr a) {
        if (i++ == pick) {
            addr = a;
            found = true;
        }
    });
    return found;
}

void
FaultInjector::record(const PlannedFault &pf, std::string site)
{
    ++counters.fired;
    _fired.push_back(
        FiredFault{pf.kind, curTick(), pf.node, std::move(site)});
}

void
FaultInjector::fireMem(const PlannedFault &pf)
{
    Addr addr = 0;
    if (!pickLine(pf.node, addr)) {
        ++counters.noSite;
        return;
    }
    BackingStore::Line &l = _sites[pf.node].store->line(addr);
    unsigned block = _rng.below(kBlocksPerLine);
    EccKey key{pf.node, addr, block};

    switch (pf.kind) {
      case FaultKind::MemDataFlip:
      case FaultKind::MemDataDoubleFlip: {
        // Snapshot the pre-corruption check bits (what the array
        // "stores"), then flip data bits underneath them. The next
        // array read decodes the mismatch through the real codec.
        if (!_ecc.count(key))
            _ecc[key] = Secded256::encode(blockOf(l.data, block));
        EccBlock b = blockOf(l.data, block);
        unsigned bit1 = _rng.below(256);
        b[bit1 / 64] ^= 1ULL << (bit1 % 64);
        if (pf.kind == FaultKind::MemDataDoubleFlip) {
            unsigned bit2 = _rng.below(255);
            if (bit2 >= bit1)
                ++bit2; // distinct from bit1
            b[bit2 / 64] ^= 1ULL << (bit2 % 64);
        }
        storeBlock(l.data, block, b);
        record(pf, strFormat("mem line %#llx block %u",
                             static_cast<unsigned long long>(addr),
                             block));
        break;
      }
      case FaultKind::MemCheckFlip: {
        // Flip a stored check bit; the data is intact, so decode
        // reports CorrectedCheck and the scrub rewrites clean bits.
        std::uint16_t good = _ecc.count(key)
                                 ? _ecc[key]
                                 : Secded256::encode(
                                       blockOf(l.data, block));
        _ecc[key] =
            good ^ static_cast<std::uint16_t>(
                       1u << _rng.below(Secded256::checkBits));
        record(pf, strFormat("mem line %#llx block %u check bits",
                             static_cast<unsigned long long>(addr),
                             block));
        break;
      }
      case FaultKind::MemDirFlip: {
        // The directory lives in the 44 spare ECC bits (§2.5.2):
        // unprotected by the block codec, so a flip lands silently —
        // the protocol (or the offline checker) must notice.
        l.dirBits ^= 1ULL << _rng.below(44);
        ++counters.dirFlips;
        record(pf, strFormat("mem line %#llx dir bits",
                             static_cast<unsigned long long>(addr)));
        break;
      }
      default:
        break;
    }
}

void
FaultInjector::fireCache(const PlannedFault &pf)
{
    bool is_l1 = pf.kind == FaultKind::L1TagFlip ||
                 pf.kind == FaultKind::L1DataFlip;
    bool corrupt_data = pf.kind == FaultKind::L1DataFlip ||
                        pf.kind == FaultKind::L2DataFlip;
    NodeSites &s = _sites.at(pf.node);
    unsigned bit = _rng.below(static_cast<std::uint32_t>(lineBytes * 8));

    if (is_l1) {
        unsigned total = 0;
        for (L1Cache *l1 : s.l1s)
            total += l1->faultValidLines();
        if (!total) {
            ++counters.noSite;
            return;
        }
        unsigned pick = _rng.below(total);
        for (L1Cache *l1 : s.l1s) {
            unsigned n = l1->faultValidLines();
            if (pick >= n) {
                pick -= n;
                continue;
            }
            L1State st = l1->faultMarkParity(pick, bit, corrupt_data);
            record(pf, strFormat("%s line %u (%s)",
                                 l1->name().c_str(), pick,
                                 st == L1State::M ? "dirty" : "clean"));
            return;
        }
        ++counters.noSite; // site set shrank under us
        return;
    }

    unsigned total = 0;
    for (L2Bank *l2 : s.l2s)
        total += l2->faultEligibleLines();
    if (!total) {
        ++counters.noSite;
        return;
    }
    unsigned pick = _rng.below(total);
    for (L2Bank *l2 : s.l2s) {
        unsigned n = l2->faultEligibleLines();
        if (pick >= n) {
            pick -= n;
            continue;
        }
        if (l2->faultMarkParity(pick, bit, corrupt_data))
            record(pf, strFormat("%s line %u", l2->name().c_str(),
                                 pick));
        else
            ++counters.noSite;
        return;
    }
    ++counters.noSite;
}

void
FaultInjector::fireIcs(const PlannedFault &pf)
{
    NodeSites &s = _sites.at(pf.node);
    if (!s.ics) {
        ++counters.noSite;
        return;
    }
    switch (pf.kind) {
      case FaultKind::IcsDrop:
        _icsArmed[pf.node] = Transport::Drop;
        break;
      case FaultKind::IcsDup:
        _icsArmed[pf.node] = Transport::Dup;
        break;
      default:
        _icsArmed[pf.node] = Transport::Delay;
        break;
    }
    record(pf, strFormat("node%u ics armed", pf.node));
}

void
FaultInjector::fireNet(const PlannedFault &pf)
{
    if (!_net) {
        ++counters.noSite; // single-chip system: no interconnect
        return;
    }
    switch (pf.kind) {
      case FaultKind::NetDrop:
        _netArmed = Transport::Drop;
        break;
      case FaultKind::NetDup:
        _netArmed = Transport::Dup;
        break;
      default:
        _netArmed = Transport::Delay;
        break;
    }
    record(pf, "net armed");
}

void
FaultInjector::fireMemStall(const PlannedFault &pf)
{
    NodeSites &s = _sites.at(pf.node);
    if (s.mcs.empty()) {
        ++counters.noSite;
        return;
    }
    MemCtrl *mc = s.mcs[_rng.below(
        static_cast<std::uint32_t>(s.mcs.size()))];
    mc->stallChannel(kMemStall);
    ++counters.memStalls;
    record(pf, strFormat("%s stalled", mc->name().c_str()));
}

void
FaultInjector::memReadHook(NodeId node, Addr lineAddr,
                           BackingStore::Line &snapshot)
{
    // The store's read is a lookup; pickLine's sites include the
    // lines the run has only read, so record this one.
    _sites.at(node).store->touch(lineAddr);
    if (_ecc.empty())
        return;
    for (unsigned block = 0; block < kBlocksPerLine; ++block) {
        auto it = _ecc.find(EccKey{node, lineAddr, block});
        if (it == _ecc.end())
            continue;
        EccBlock b = blockOf(snapshot.data, block);
        EccResult r = Secded256::decode(b, it->second);
        switch (r) {
          case EccResult::Ok:
            // A later partial overwrite happened to restore the
            // encoded data; nothing to do.
            break;
          case EccResult::CorrectedData: {
            // Fix the returned snapshot and scrub the corrected
            // block back into the array so the error cannot
            // accumulate into an uncorrectable one.
            storeBlock(snapshot.data, block, b);
            BackingStore::Line &l =
                _sites.at(node).store->line(lineAddr);
            storeBlock(l.data, block, b);
            ++counters.eccCorrectedData;
            ++counters.scrubWrites;
            break;
          }
          case EccResult::CorrectedCheck:
            // Data was fine; the stored check bits were wrong. The
            // scrub rewrite regenerates them.
            ++counters.eccCorrectedCheck;
            ++counters.scrubWrites;
            break;
          case EccResult::Uncorrectable:
            ++counters.eccUncorrectable;
            raiseMachineCheck(strFormat(
                "uncorrectable ECC error: node%u line %#llx block %u",
                node, static_cast<unsigned long long>(lineAddr),
                block));
            break;
        }
        _ecc.erase(it);
    }
}

void
FaultInjector::memWriteHook(NodeId node, Addr lineAddr)
{
    if (_ecc.empty())
        return;
    for (unsigned block = 0; block < kBlocksPerLine; ++block)
        if (_ecc.erase(EccKey{node, lineAddr, block}))
            ++counters.eccMaskedByWrite;
}

bool
FaultInjector::icsSendHook(NodeId node, IntraChipSwitch &sw,
                           IcsMsg &msg)
{
    if (_bypass)
        return true;
    Transport t = _icsArmed.at(node);
    if (t == Transport::None)
        return true;
    _icsArmed[node] = Transport::None;

    switch (t) {
      case Transport::Drop:
        // The message is simply gone. The intra-chip protocol has no
        // timeout (the ICS is reliable hardware), so this is the
        // deliberate wedge the forward-progress watchdog catches.
        ++counters.icsDropped;
        return false;
      case Transport::Dup: {
        ++counters.icsDuplicated;
        IntraChipSwitch *swp = &sw;
        scheduleIn(0, [this, swp, copy = msg]() mutable {
            _bypass = true;
            swp->send(std::move(copy));
            _bypass = false;
        });
        return true;
      }
      case Transport::Delay: {
        ++counters.icsDelayed;
        IntraChipSwitch *swp = &sw;
        scheduleIn(kIcsDelay,
                   [this, swp, copy = msg]() mutable {
                       _bypass = true;
                       swp->send(std::move(copy));
                       _bypass = false;
                   });
        return false;
      }
      default:
        return true;
    }
}

bool
FaultInjector::netInjectHook(Network &net, NetPacket &pkt)
{
    if (_bypass)
        return true;
    Transport t = _netArmed;
    if (t == Transport::None)
        return true;
    _netArmed = Transport::None;
    Network *np = &net;

    switch (t) {
      case Transport::Drop: {
        // Lost on the wire; the injector models the protocol's
        // timeout-and-retry by re-injecting after the retry timeout.
        ++counters.netDropped;
        scheduleIn(kNetRetry,
                   [this, np, copy = pkt]() mutable {
                       ++counters.netRetransmits;
                       _bypass = true;
                       np->inject(std::move(copy));
                       _bypass = false;
                   });
        return false;
      }
      case Transport::Dup: {
        // Tag both copies with one sequence number; the receiver
        // filter accepts the first arrival and discards the second.
        pkt.faultSeq = _nextSeq++;
        ++counters.netDuplicated;
        scheduleIn(0, [this, np, copy = pkt]() mutable {
            _bypass = true;
            np->inject(std::move(copy));
            _bypass = false;
        });
        return true;
      }
      case Transport::Delay: {
        ++counters.netDelayed;
        scheduleIn(kNetDelay,
                   [this, np, copy = pkt]() mutable {
                       _bypass = true;
                       np->inject(std::move(copy));
                       _bypass = false;
                   });
        return false;
      }
      default:
        return true;
    }
}

bool
FaultInjector::netDeliverFilter(const NetPacket &pkt)
{
    if (_seenSeqs.insert(pkt.faultSeq).second)
        return true;
    ++counters.netDupFiltered;
    return false;
}

void
FaultInjector::raiseMachineCheck(std::string why)
{
    ++counters.machineChecks;
    if (_machineCheck)
        return; // keep the first cause
    _machineCheck = true;
    _mcReason = std::move(why);
}

DirEntry
decodeDirEntry(FaultInjector *inj, NodeId node, Addr line,
               std::uint64_t bits, unsigned num_nodes)
{
    unsigned bad = 0;
    DirEntry dir = DirEntry::unpack(bits, num_nodes, &bad);
    if (bad) {
        std::string why = strFormat(
            "directory pointer %u out of range (%u nodes): node%u line "
            "%#llx",
            bad, num_nodes, static_cast<unsigned>(node),
            static_cast<unsigned long long>(line));
        if (!inj)
            panic("%s", why.c_str());
        inj->raiseMachineCheck(std::move(why));
    }
    return dir;
}

} // namespace piranha

