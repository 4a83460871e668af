#include "check/trace.h"

#include <algorithm>
#include <cstdio>

namespace piranha {

const char *
traceKindName(TraceKind k)
{
    switch (k) {
      case TraceKind::Init: return "Init";
      case TraceKind::StoreIssue: return "StoreIssue";
      case TraceKind::StoreCommit: return "StoreCommit";
      case TraceKind::LoadCommit: return "LoadCommit";
      case TraceKind::Wh64: return "Wh64";
      case TraceKind::Fill: return "Fill";
      case TraceKind::InvalRecv: return "InvalRecv";
      case TraceKind::FwdService: return "FwdService";
      case TraceKind::VictimDrop: return "VictimDrop";
      case TraceKind::VictimTaken: return "VictimTaken";
      case TraceKind::InvalSent: return "InvalSent";
      case TraceKind::OwnerChange: return "OwnerChange";
      case TraceKind::WbInstall: return "WbInstall";
      case TraceKind::L2Evict: return "L2Evict";
      case TraceKind::CmiPlan: return "CmiPlan";
      case TraceKind::CmiInval: return "CmiInval";
      case TraceKind::Marker: return "Marker";
    }
    return "?";
}

std::string
renderTraceEvent(std::size_t idx, const TraceEvent &e)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "[%6zu] t=%-10llu %-11s node=%d l1=%-2d aux=%-2d "
                  "addr=%#llx val=%#llx size=%u state=%u src=%s mask=%#x",
                  idx, static_cast<unsigned long long>(e.tick),
                  traceKindName(e.kind), e.node, e.l1, e.aux,
                  static_cast<unsigned long long>(e.addr),
                  static_cast<unsigned long long>(e.value), e.size,
                  e.state, fillSourceName(e.src), e.mask);
    return buf;
}

CoherenceTracer::CoherenceTracer(std::size_t capacity)
    : _cap(capacity ? capacity : 1)
{
    _ring.reserve(std::min<std::size_t>(_cap, 4096));
}

void
CoherenceTracer::init(Addr addr, unsigned size, std::uint64_t value)
{
    record(TraceEvent{.tick = 0,
                      .kind = TraceKind::Init,
                      .size = size,
                      .addr = addr,
                      .value = value});
}

void
CoherenceTracer::mark(Tick tick, std::uint64_t code)
{
    record(TraceEvent{
        .tick = tick, .kind = TraceKind::Marker, .value = code});
}

std::vector<TraceEvent>
CoherenceTracer::events() const
{
    if (_recorded <= _cap)
        return _ring;
    std::vector<TraceEvent> out;
    out.reserve(_cap);
    std::size_t head = _recorded % _cap; // oldest surviving event
    for (std::size_t i = 0; i < _cap; ++i)
        out.push_back(_ring[(head + i) % _cap]);
    return out;
}

void
CoherenceTracer::clear()
{
    _ring.clear();
    _recorded = 0;
}

} // namespace piranha
