/**
 * @file
 * Directory entry codec: 44 bits per 64-byte line, stored in the ECC
 * bits freed by computing SECDED at 256-bit granularity (paper §2.5.2).
 *
 * Layout: 2 bits of state + 42 bits encoding sharers. Two
 * representations are used depending on the number of sharers:
 *
 *  - limited pointer: up to 4 node pointers of 10 bits each (1K-node
 *    systems), packed into the low 40 bits;
 *  - coarse vector: 42 bits, each covering a group of
 *    ceil(numNodes/42) nodes, used past 4 remote sharing nodes.
 *
 * The directory tracks *remote* nodes only (sharing at the home node
 * is tracked by the home chip's duplicate L1 tags and L2 state) and at
 * node granularity, not individual CPUs.
 */

#ifndef PIRANHA_MEM_DIRECTORY_H
#define PIRANHA_MEM_DIRECTORY_H

#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace piranha {

/** Directory entry states (2 bits). */
enum class DirState : std::uint8_t
{
    Uncached = 0,   //!< no remote copies
    SharedPtr = 1,  //!< <= 4 remote sharers, limited-pointer list
    SharedCv = 2,   //!< coarse-vector of remote sharers
    Exclusive = 3,  //!< one remote owner (dirty or clean-exclusive)
};

/**
 * A decoded directory entry plus the encode/decode logic.
 *
 * The class operates on the packed 44-bit representation that lives in
 * memory next to each line, so every transition through the protocol
 * engines round-trips the real encoding, including the lossy
 * limited-pointer -> coarse-vector switch.
 */
class DirEntry
{
  public:
    static constexpr unsigned entryBits = 44;
    static constexpr unsigned sharerBits = 42;
    static constexpr unsigned ptrBits = 10;
    static constexpr unsigned maxPointers = 4;

    /** Create an empty (Uncached) entry for a system of @p num_nodes. */
    explicit DirEntry(unsigned num_nodes = 2);

    /**
     * Decode from the packed 44-bit memory representation. A pointer
     * naming no node of the system (>= @p num_nodes: only a corrupted
     * entry holds one) is dropped, so the entry never routes to it;
     * @p bad_ptr, when given, receives the first one dropped, or 0 if
     * none was (a dropped pointer is at least num_nodes >= 1).
     */
    static DirEntry unpack(std::uint64_t bits, unsigned num_nodes,
                           unsigned *bad_ptr = nullptr);

    /** Encode to the packed 44-bit memory representation. */
    std::uint64_t pack() const;

    DirState state() const { return _state; }

    /** True if @p node may hold a copy according to this entry. */
    bool mayBeSharer(NodeId node) const;

    /** The exclusive owner; only valid in state Exclusive. */
    NodeId owner() const;

    /** True if there are no remote copies. */
    bool empty() const { return _state == DirState::Uncached; }

    /**
     * Replace @p out with all nodes that must be invalidated (the
     * precise pointer list in pointer order, or every node in the set
     * groups for coarse vector — coarse vector over-invalidates by
     * construction). Callers keep @p out to reuse its storage.
     */
    void sharerList(std::vector<NodeId> &out) const;

    /** Number of remote sharers (upper bound for coarse vector). */
    unsigned sharerCount() const;

    /** Add a remote sharer, switching representation when needed. */
    void addSharer(NodeId node);

    /**
     * Remove a sharer. Exact in pointer representation; in coarse
     * vector the group bit is cleared only via clear() (hardware
     * cannot know whether other nodes in the group still share).
     */
    void removeSharer(NodeId node);

    /** Make @p node the exclusive owner (previous content replaced). */
    void setExclusive(NodeId node);

    /** Drop all remote sharers. */
    void clear();

    bool operator==(const DirEntry &o) const;

    unsigned numNodes() const { return _numNodes; }

    /** Nodes covered per coarse-vector bit for an n-node system. */
    static unsigned
    groupSize(unsigned num_nodes)
    {
        return (num_nodes + sharerBits - 1) / sharerBits;
    }

  private:
    DirState _state;
    unsigned _numNodes;
    // SharedPtr/Exclusive: the first _numPtrs slots hold the pointer
    // list in insertion order (owner in [0]); SharedCv: the 42-bit
    // vector.
    std::array<NodeId, maxPointers> _ptrs{};
    unsigned _numPtrs = 0;
    std::uint64_t _cv = 0;

    /** True if the pointer list holds @p node. */
    bool hasPtr(NodeId node) const;

    void switchToCoarse();
};

} // namespace piranha

#endif // PIRANHA_MEM_DIRECTORY_H
