/**
 * @file
 * A single-chip Piranha processing node (paper §2, Figure 1).
 *
 * Assembles the eight Alpha CPU slots' first-level caches, the
 * intra-chip switch, the eight L2 banks with their memory
 * controllers and direct-Rambus channels, the home and remote
 * protocol engines, and the interconnect attachment. CPU models plug
 * into the dL1/iL1 ports; the chip is usable stand-alone (single-node
 * system) or attached to a Network for glueless multiprocessing.
 */

#ifndef PIRANHA_SYSTEM_CHIP_H
#define PIRANHA_SYSTEM_CHIP_H

#include <memory>
#include <vector>

#include "cache/l1_cache.h"
#include "cache/l2_bank.h"
#include "ics/intra_chip_switch.h"
#include "mem/backing_store.h"
#include "mem/mem_ctrl.h"
#include "noc/network.h"
#include "proto/protocol_engine.h"
#include "sim/sim_object.h"
#include "system/address_map.h"
#include "system/chip_ports.h"

namespace piranha {

/** Chip-level configuration (Table 1 parameters live in config.h). */
struct ChipParams
{
    unsigned cpus = 8;
    double clockMhz = 500.0;
    L1Params l1d{};
    L1Params l1i{};
    L2Params l2{};
    RdramParams rdram{};
    unsigned icsPipeCycles = 2;
    unsigned tsrfEntries = 16;
    unsigned cmiFanout = 4;

    /**
     * Optional coherence tracer and seeded protocol fault (src/check/).
     * Shared by every L1, L2 bank and protocol engine of the chip;
     * multi-chip harnesses pass the same pointers to every chip so one
     * trace covers the whole system. Null = disabled.
     */
    CoherenceTracer *tracer = nullptr;
    FaultState *faults = nullptr;

    /**
     * Optional fault injector (src/fault/), owned by the system.
     * Propagated into every L1, L2 bank, memory controller and the
     * ICS. Null = no injection (the hooks cost one predictable
     * branch).
     */
    FaultInjector *injector = nullptr;

    ChipParams()
    {
        l1i.isInstr = true;
    }
};

/** One Piranha processing chip. */
class PiranhaChip : public SimObject
{
  public:
    /**
     * @param net optional system interconnect; single-chip systems
     *        pass nullptr. The caller must addNode/connect/finalize
     *        the network separately.
     */
    PiranhaChip(EventQueue &eq, std::string name, NodeId node,
                const AddressMap &amap, const ChipParams &params,
                Network *net);

    L1Cache &dl1(unsigned cpu) { return *_l1s[dl1Port(cpu)]; }
    L1Cache &il1(unsigned cpu) { return *_l1s[il1Port(cpu)]; }
    L2Bank &l2(unsigned bank) { return *_banks[bank]; }
    MemCtrl &mc(unsigned bank) { return *_mcs[bank]; }
    BackingStore &memory() { return _store; }
    IntraChipSwitch &ics() { return *_ics; }
    ProtocolEngine &homeEngine() { return *_he; }
    ProtocolEngine &remoteEngine() { return *_re; }
    const Clock &clock() const { return _clock; }
    NodeId node() const { return _node; }
    unsigned cpus() const { return _p.cpus; }

    /** Terminal packet delivery from the interconnect (IQ side). */
    void deliverNet(const NetPacket &pkt);

    void regStats(StatGroup &parent);

    /** Aggregate L1-miss service breakdown over all banks. */
    struct MissBreakdown
    {
        double l2Hit = 0;
        double l2Fwd = 0;
        double memLocal = 0;
        double memRemote = 0;
        double remoteDirty = 0;
        double total() const
        {
            return l2Hit + l2Fwd + memLocal + memRemote + remoteDirty;
        }
    };
    MissBreakdown missBreakdown() const;

  private:
    ChipParams _p;
    NodeId _node;
    AddressMap _amap;
    Clock _clock;
    BackingStore _store;

    std::unique_ptr<IntraChipSwitch> _ics;
    std::vector<std::unique_ptr<L1Cache>> _l1s;     //!< by port
    std::vector<std::unique_ptr<L2Bank>> _banks;
    std::vector<std::unique_ptr<MemCtrl>> _mcs;
    std::unique_ptr<ProtocolEngine> _he;
    std::unique_ptr<ProtocolEngine> _re;
    StatGroup _stats;
};

} // namespace piranha

#endif // PIRANHA_SYSTEM_CHIP_H
