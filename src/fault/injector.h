/**
 * @file
 * Deterministic fault injector (DESIGN.md §9).
 *
 * One FaultInjector is owned by a PiranhaSystem and shared by every
 * component of the run. It schedules the plan's faults off the event
 * kernel; each fire selects a concrete site with the plan-seeded
 * Pcg32 and mutates real simulator state:
 *
 *  - RDRAM bit flips are driven through the real Secded256 codec: the
 *    injector snapshots the pre-corruption check bits into a side
 *    table and the memory controller's array read runs decode() over
 *    the (now corrupted) stored data — single-bit errors are
 *    corrected in the returned snapshot and scrubbed back to the
 *    array, double-bit errors raise a machine check. Directory bits
 *    occupy the spare (unchecked) ECC bits, so a directory flip is
 *    simply applied and left for the protocol (or the offline
 *    checker) to notice.
 *  - L1/L2 tag and data flips mark a line parity-bad; the caches
 *    detect on next use and refetch (clean) or machine-check (dirty).
 *  - ICS / network faults arm a one-shot transport action consumed by
 *    the next send/inject: drop, duplicate, or delay. Dropped
 *    inter-chip packets are re-injected after a retry timeout
 *    (protocol-level timeout-and-retry); dropped ICS messages stay
 *    lost — that is the deliberate wedge the forward-progress
 *    watchdog must catch.
 *  - MemStall makes one memory channel transiently busy.
 *
 * All bookkeeping is host-side (plain counters, no Scalars, no
 * self-scheduled periodic events), so a run whose plan fires zero
 * faults is bit-identical — same event count, same stat tree — to a
 * run without an injector.
 */

#ifndef PIRANHA_FAULT_INJECTOR_H
#define PIRANHA_FAULT_INJECTOR_H

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fault/fault_plan.h"
#include "mem/backing_store.h"
#include "mem/coherence_types.h"
#include "noc/packet.h"
#include "sim/rng.h"
#include "sim/sim_object.h"

namespace piranha {

class IntraChipSwitch;
class Network;
class L1Cache;
class L2Bank;
class MemCtrl;

/** The per-run fault injector. */
class FaultInjector : public SimObject
{
  public:
    FaultInjector(EventQueue &eq, std::string name,
                  const FaultPlanConfig &plan, unsigned nodes);

    /** Injection sites of one node, gathered by PiranhaSystem. */
    struct NodeSites
    {
        BackingStore *store = nullptr;
        std::vector<MemCtrl *> mcs;
        std::vector<L1Cache *> l1s;
        std::vector<L2Bank *> l2s;
        IntraChipSwitch *ics = nullptr;
    };

    void attachNode(unsigned node, NodeSites sites);
    void attachNetwork(Network *net);

    /** Schedule every planned/drawn fault (call once, before run). */
    void arm();

    // ------------------------------------------------------------------
    // Component hooks (called wherever a component holds a non-null
    // FaultInjector pointer).

    /**
     * Memory-array read: decode each ECC block of @p snapshot against
     * the side-table check bits (present only for corrupted lines).
     * Correctable errors are fixed in the snapshot and scrubbed back
     * to the store; uncorrectable ones raise a machine check.
     */
    void memReadHook(NodeId node, Addr lineAddr,
                     BackingStore::Line &snapshot);

    /** Full-line data write: pending corruption of the line is
     *  overwritten (check bits regenerate) — fault masked. */
    void memWriteHook(NodeId node, Addr lineAddr);

    /** ICS send: returns false when the message is suppressed (drop
     *  or delay); may also emit a duplicate. */
    bool icsSendHook(NodeId node, IntraChipSwitch &sw, IcsMsg &msg);

    /** Network inject: returns false when the packet is suppressed
     *  (drop-with-retry or delay); may tag + duplicate. */
    bool netInjectHook(Network &net, NetPacket &pkt);

    /** Receiver-side duplicate filter: false = discard this arrival.
     *  Only called for pkt.faultSeq != 0. */
    bool netDeliverFilter(const NetPacket &pkt);

    // ------------------------------------------------------------------
    // Detection state.

    /** Record an unrecoverable detected error. The run loop polls
     *  machineCheck() and tears the run down cleanly. */
    void raiseMachineCheck(std::string why);

    bool machineCheck() const { return _machineCheck; }
    const std::string &machineCheckReason() const { return _mcReason; }

    /** Host-side counters (never in the stat tree: a zero-fault run
     *  must stay stat-tree-identical to a plain run). */
    FaultCounters counters;

    /** Faults that actually landed on a site, in fire order. */
    const std::vector<FiredFault> &fired() const { return _fired; }

  private:
    void fire(const PlannedFault &pf);

    void fireMem(const PlannedFault &pf);
    void fireCache(const PlannedFault &pf);
    void fireIcs(const PlannedFault &pf);
    void fireNet(const PlannedFault &pf);
    void fireMemStall(const PlannedFault &pf);

    /** Pick a touched line of @p node's store; false if none. */
    bool pickLine(unsigned node, Addr &addr);

    void record(const PlannedFault &pf, std::string site);

    /** Per-(node,line,block) stored ECC check bits. Entries exist
     *  only for blocks whose stored data diverges from its check
     *  bits; absence means "check bits match the data" (the normal,
     *  uncorrupted case — writes keep them consistent). */
    struct EccKey
    {
        unsigned node;
        Addr line;
        unsigned block;
        bool operator==(const EccKey &o) const
        {
            return node == o.node && line == o.line && block == o.block;
        }
    };
    struct EccKeyHash
    {
        std::size_t operator()(const EccKey &k) const
        {
            std::uint64_t h = k.line * 0x9e3779b97f4a7c15ULL;
            h ^= (std::uint64_t(k.node) << 8) ^ k.block;
            return static_cast<std::size_t>(h ^ (h >> 29));
        }
    };

    /** One-shot transport action armed on a node's ICS. */
    enum class Transport : std::uint8_t { None, Drop, Dup, Delay };

    FaultPlanConfig _plan;
    unsigned _numNodes;
    Pcg32 _rng;

    std::vector<NodeSites> _sites;
    Network *_net = nullptr;

    std::unordered_map<EccKey, std::uint16_t, EccKeyHash> _ecc;
    std::vector<Transport> _icsArmed;  //!< per node
    Transport _netArmed = Transport::None;

    /** Set while the injector itself re-sends a delayed / duplicated
     *  / retried message, so its own traffic is not intercepted. */
    bool _bypass = false;

    std::uint64_t _nextSeq = 1;
    std::unordered_set<std::uint64_t> _seenSeqs;

    bool _machineCheck = false;
    std::string _mcReason;

    std::vector<FiredFault> _fired;
};

} // namespace piranha

#endif // PIRANHA_FAULT_INJECTOR_H
