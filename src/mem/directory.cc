#include "mem/directory.h"

#include <algorithm>

#include "sim/logging.h"

namespace piranha {

DirEntry::DirEntry(unsigned num_nodes)
    : _state(DirState::Uncached), _numNodes(num_nodes)
{
    if (num_nodes == 0 || num_nodes > 1024)
        fatal("directory supports 1..1024 nodes (got %u)", num_nodes);
}

DirEntry
DirEntry::unpack(std::uint64_t bits, unsigned num_nodes,
                 unsigned *bad_ptr)
{
    if (bad_ptr)
        *bad_ptr = 0;
    DirEntry e(num_nodes);
    e._state = static_cast<DirState>((bits >> sharerBits) & 0x3);
    std::uint64_t body = bits & ((1ULL << sharerBits) - 1);
    switch (e._state) {
      case DirState::Uncached:
        break;
      case DirState::SharedPtr:
      case DirState::Exclusive: {
        // Low 40 bits: four 10-bit pointer slots; slot value 0x3ff
        // (impossible node id in a 1K system... actually 1023 is a
        // valid id) -- so we use bits 40..41 as a 2-bit count instead.
        unsigned count = static_cast<unsigned>((body >> 40) & 0x3) + 1;
        if (e._state == DirState::Exclusive)
            count = 1;
        for (unsigned i = 0; i < count; ++i) {
            unsigned p = static_cast<unsigned>(body >> (i * ptrBits)) &
                         ((1u << ptrBits) - 1);
            if (p < num_nodes)
                e._ptrs[e._numPtrs++] = static_cast<NodeId>(p);
            else if (bad_ptr && *bad_ptr == 0)
                *bad_ptr = p;
        }
        if (e._numPtrs == 0)
            e.clear();
        break;
      }
      case DirState::SharedCv:
        e._cv = body;
        break;
    }
    return e;
}

std::uint64_t
DirEntry::pack() const
{
    std::uint64_t body = 0;
    switch (_state) {
      case DirState::Uncached:
        break;
      case DirState::SharedPtr:
      case DirState::Exclusive: {
        if (_numPtrs == 0)
            panic("directory pointer count 0 in state %d",
                  static_cast<int>(_state));
        for (unsigned i = 0; i < _numPtrs; ++i)
            body |= static_cast<std::uint64_t>(_ptrs[i]) << (i * ptrBits);
        body |= static_cast<std::uint64_t>(_numPtrs - 1) << 40;
        break;
      }
      case DirState::SharedCv:
        body = _cv;
        break;
    }
    return body | (static_cast<std::uint64_t>(_state) << sharerBits);
}

bool
DirEntry::hasPtr(NodeId node) const
{
    const NodeId *end = _ptrs.data() + _numPtrs;
    return std::find(_ptrs.data(), end, node) != end;
}

bool
DirEntry::mayBeSharer(NodeId node) const
{
    switch (_state) {
      case DirState::Uncached:
        return false;
      case DirState::SharedPtr:
      case DirState::Exclusive:
        return hasPtr(node);
      case DirState::SharedCv:
        return (_cv >> (node / groupSize(_numNodes))) & 1;
    }
    return false;
}

NodeId
DirEntry::owner() const
{
    if (_state != DirState::Exclusive)
        panic("directory owner() in non-exclusive state %d",
              static_cast<int>(_state));
    return _ptrs[0];
}

void
DirEntry::sharerList(std::vector<NodeId> &out) const
{
    out.clear();
    switch (_state) {
      case DirState::Uncached:
        break;
      case DirState::SharedPtr:
      case DirState::Exclusive:
        out.assign(_ptrs.data(), _ptrs.data() + _numPtrs);
        break;
      case DirState::SharedCv: {
        unsigned gs = groupSize(_numNodes);
        for (unsigned g = 0; g < sharerBits; ++g) {
            if (!((_cv >> g) & 1))
                continue;
            for (unsigned n = g * gs;
                 n < (g + 1) * gs && n < _numNodes; ++n) {
                out.push_back(static_cast<NodeId>(n));
            }
        }
        break;
      }
    }
}

unsigned
DirEntry::sharerCount() const
{
    switch (_state) {
      case DirState::Uncached:
        return 0;
      case DirState::SharedPtr:
      case DirState::Exclusive:
        return _numPtrs;
      case DirState::SharedCv: {
        // Every node of each set group, as sharerList() lists them.
        unsigned gs = groupSize(_numNodes);
        unsigned n = 0;
        for (unsigned g = 0; g < sharerBits && g * gs < _numNodes; ++g)
            if ((_cv >> g) & 1)
                n += std::min((g + 1) * gs, _numNodes) - g * gs;
        return n;
      }
    }
    return 0;
}

void
DirEntry::switchToCoarse()
{
    std::uint64_t cv = 0;
    unsigned gs = groupSize(_numNodes);
    for (unsigned i = 0; i < _numPtrs; ++i)
        cv |= 1ULL << (_ptrs[i] / gs);
    _numPtrs = 0;
    _cv = cv;
    _state = DirState::SharedCv;
}

void
DirEntry::addSharer(NodeId node)
{
    switch (_state) {
      case DirState::Uncached:
        _state = DirState::SharedPtr;
        _ptrs[0] = node;
        _numPtrs = 1;
        break;
      case DirState::Exclusive:
        // Owner demotes to a sharer alongside the new one.
        _state = DirState::SharedPtr;
        if (_ptrs[0] != node)
            _ptrs[_numPtrs++] = node;
        break;
      case DirState::SharedPtr:
        if (hasPtr(node))
            return;
        if (_numPtrs == maxPointers) {
            // Past 4 remote sharing nodes: switch representation.
            switchToCoarse();
            _cv |= 1ULL << (node / groupSize(_numNodes));
        } else {
            _ptrs[_numPtrs++] = node;
        }
        break;
      case DirState::SharedCv:
        _cv |= 1ULL << (node / groupSize(_numNodes));
        break;
    }
}

void
DirEntry::removeSharer(NodeId node)
{
    switch (_state) {
      case DirState::Uncached:
        break;
      case DirState::Exclusive:
        if (_ptrs[0] == node)
            clear();
        break;
      case DirState::SharedPtr: {
        // Close the gap so the remaining pointers keep their order.
        _numPtrs = static_cast<unsigned>(
            std::remove(_ptrs.data(), _ptrs.data() + _numPtrs, node) -
            _ptrs.data());
        if (_numPtrs == 0)
            clear();
        break;
      }
      case DirState::SharedCv:
        // Coarse vector cannot remove a single node: other nodes in
        // the same group may still share. This imprecision is inherent
        // to the representation (extra invalidations are harmless).
        break;
    }
}

void
DirEntry::setExclusive(NodeId node)
{
    _state = DirState::Exclusive;
    _ptrs[0] = node;
    _numPtrs = 1;
    _cv = 0;
}

void
DirEntry::clear()
{
    _state = DirState::Uncached;
    _numPtrs = 0;
    _cv = 0;
}

bool
DirEntry::operator==(const DirEntry &o) const
{
    if (_state != o._state || _numNodes != o._numNodes)
        return false;
    switch (_state) {
      case DirState::Uncached:
        return true;
      case DirState::SharedPtr: {
        // Same set in any order; a pointer list holds distinct nodes.
        if (_numPtrs != o._numPtrs)
            return false;
        for (unsigned i = 0; i < _numPtrs; ++i)
            if (!o.hasPtr(_ptrs[i]))
                return false;
        return true;
      }
      case DirState::Exclusive:
        return _ptrs[0] == o._ptrs[0];
      case DirState::SharedCv:
        return _cv == o._cv;
    }
    return false;
}

} // namespace piranha
