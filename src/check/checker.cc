#include "check/checker.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "sim/logging.h"

namespace piranha {

namespace {

constexpr std::size_t npos = CheckViolation::npos;

/** Violations collected before the checker stops. */
constexpr std::size_t maxViolations = 16;

/** Identity of one coherence agent: an L1 within a node. */
using AgentKey = std::uint32_t;

AgentKey
agentOf(const TraceEvent &e)
{
    return static_cast<AgentKey>(e.node) * 64 +
           static_cast<AgentKey>(e.l1 < 0 ? 63 : e.l1);
}

std::uint64_t
agentByteKey(AgentKey agent, Addr byte_addr)
{
    return (static_cast<std::uint64_t>(agent) << 48) | byte_addr;
}

std::uint64_t
nodeLineKey(int node, Addr line)
{
    return (static_cast<std::uint64_t>(node) << 48) | line;
}

std::uint8_t
byteOf(std::uint64_t v, unsigned b)
{
    return static_cast<std::uint8_t>(v >> (8 * b));
}

/** One entry in a byte's commit order. */
struct WriteRec
{
    std::size_t idx;      //!< trace event index
    std::uint8_t val = 0;
    bool any = false;     //!< wildcard (Wh64: contents undefined)
};

/** One store issued into a store buffer, until matched by a commit. */
struct Issue
{
    std::size_t idx;
    Addr addr;
    unsigned size;
    std::uint64_t value;
    bool committed = false;
};

struct IssueList
{
    std::vector<Issue> v;
    std::size_t firstLive = 0; //!< oldest possibly-uncommitted entry
};

/** Checker's view of one L1's copy of one line. */
struct Holder
{
    unsigned st = 0;  //!< L1State as unsigned (0 = I)
    int pendInv = 0;  //!< invals sent to this L1, not yet delivered
    std::size_t lastIdx = npos;      //!< event that set st
    std::size_t lastInvalSent = npos;
};

struct Checker
{
    CheckReport rep;
    bool settled = false;

    std::unordered_map<Addr, std::vector<WriteRec>> writes;
    std::unordered_map<std::uint64_t, std::size_t> lastObs;
    std::unordered_map<AgentKey, IssueList> issues;
    // (node, line) -> per-L1 copy state from the dup-tag/L1 events
    std::unordered_map<std::uint64_t, std::map<int, Holder>> lines;

    bool full() const { return rep.violations.size() >= maxViolations; }

    void
    flag(std::string axiom, std::string detail, std::size_t ev,
         std::size_t ref, Addr addr)
    {
        if (full())
            return;
        rep.violations.push_back({std::move(axiom), std::move(detail),
                                  ev, ref, addr});
    }

    void
    appendWrite(Addr ba, std::size_t idx, std::uint8_t val, bool any,
                AgentKey agent)
    {
        auto &w = writes[ba];
        w.push_back({idx, val, any});
        lastObs[agentByteKey(agent, ba)] = w.size() - 1;
    }

    void
    checkLoadByte(std::size_t i, const TraceEvent &e, AgentKey agent,
                  unsigned b, IssueList &il)
    {
        Addr ba = e.addr + b;
        std::uint8_t got = byteOf(e.value, b);

        // Read-own-write: the youngest covering store-buffer entry of
        // this CPU wins; if it is still uncommitted the load must
        // return exactly its data.
        for (std::size_t j = il.v.size(); j-- > il.firstLive;) {
            const Issue &is = il.v[j];
            if (ba < is.addr || ba >= is.addr + is.size)
                continue;
            if (is.committed)
                break; // drained; the global order governs the value
            std::uint8_t exp =
                byteOf(is.value, static_cast<unsigned>(ba - is.addr));
            if (got != exp)
                flag("read-own-write",
                     strFormat("byte %#llx: load got %#x, pending own "
                               "store holds %#x",
                               (unsigned long long)ba, got, exp),
                     i, is.idx, ba);
            return;
        }

        auto wit = writes.find(ba);
        if (wit == writes.end() || wit->second.empty())
            return; // initial contents unknown; nothing to claim
        auto &w = wit->second;

        // Newest write this value can be explained by.
        std::size_t match = npos;
        for (std::size_t j = w.size(); j-- > 0;)
            if (w[j].any || w[j].val == got) {
                match = j;
                break;
            }
        if (match == npos) {
            flag("value-integrity",
                 strFormat("byte %#llx: load got %#x, never written",
                           (unsigned long long)ba, got),
                 i, w.back().idx, ba);
            return;
        }

        auto lo_key = agentByteKey(agent, ba);
        auto lo = lastObs.find(lo_key);
        if (lo != lastObs.end() && match < lo->second) {
            flag("monotonic-read",
                 strFormat("byte %#llx: load got %#x, older than a "
                           "write this CPU already observed",
                           (unsigned long long)ba, got),
                 i, w[lo->second].idx, ba);
            return;
        }
        if (settled && match != w.size() - 1) {
            flag("settled-stale",
                 strFormat("byte %#llx: load got %#x after settle; "
                           "final committed value is %#x",
                           (unsigned long long)ba, got, w.back().val),
                 i, w.back().idx, ba);
            return;
        }
        // Conservative observation advance: the oldest write >= the
        // last observation that explains the value. Claiming the
        // newest instead could manufacture monotonicity violations
        // when two writes carry the same byte value.
        std::size_t base = lo != lastObs.end() ? lo->second : 0;
        for (std::size_t j = base; j < w.size(); ++j)
            if (w[j].any || w[j].val == got) {
                lastObs[lo_key] = j;
                break;
            }
    }

    void
    onEvent(std::size_t i, const TraceEvent &e)
    {
        AgentKey agent = agentOf(e);
        switch (e.kind) {
          case TraceKind::Init:
            for (unsigned b = 0; b < e.size; ++b)
                writes[e.addr + b].push_back({i, byteOf(e.value, b),
                                              false});
            break;

          case TraceKind::StoreIssue:
            issues[agent].v.push_back(
                {i, e.addr, e.size, e.value, false});
            break;

          case TraceKind::StoreCommit: {
            auto &il = issues[agent];
            for (std::size_t j = il.firstLive; j < il.v.size(); ++j) {
                Issue &is = il.v[j];
                if (!is.committed && is.addr == e.addr &&
                    is.size == e.size && is.value == e.value) {
                    is.committed = true;
                    break;
                }
            }
            while (il.firstLive < il.v.size() &&
                   il.v[il.firstLive].committed)
                ++il.firstLive;

            auto &hold = lines[nodeLineKey(e.node, lineNum(e.addr))];
            auto hit = hold.find(e.l1);
            if (hit != hold.end() && hit->second.st != 0 &&
                hit->second.st < unsigned(L1State::E))
                flag("occupancy",
                     strFormat("node %d L1 %d committed a store while "
                               "holding state %u (not exclusive)",
                               e.node, e.l1, hit->second.st),
                     i, hit->second.lastIdx, e.addr);
            Holder &h = hold[e.l1];
            h.st = unsigned(L1State::M);
            h.lastIdx = i;

            for (unsigned b = 0; b < e.size; ++b)
                appendWrite(e.addr + b, i, byteOf(e.value, b), false,
                            agent);
            break;
          }

          case TraceKind::LoadCommit: {
            auto &il = issues[agent];
            for (unsigned b = 0; b < e.size && !full(); ++b)
                checkLoadByte(i, e, agent, b, il);
            break;
          }

          case TraceKind::Wh64: {
            Addr base = lineAlign(e.addr);
            for (unsigned b = 0; b < lineBytes; ++b)
                appendWrite(base + b, i, 0, true, agent);
            Holder &h =
                lines[nodeLineKey(e.node, lineNum(e.addr))][e.l1];
            h.st = unsigned(L1State::M);
            h.lastIdx = i;
            break;
          }

          case TraceKind::Fill: {
            auto &hold = lines[nodeLineKey(e.node, lineNum(e.addr))];
            for (auto &[l1, h] : hold) {
                if (l1 == e.l1 || h.st == 0 || h.pendInv > 0)
                    continue;
                if (e.state >= unsigned(L1State::E))
                    flag("occupancy",
                         strFormat("node %d L1 %d granted exclusive "
                                   "while L1 %d holds state %u",
                                   e.node, e.l1, l1, h.st),
                         i, h.lastIdx, e.addr);
                else if (h.st >= unsigned(L1State::E))
                    flag("occupancy",
                         strFormat("node %d L1 %d granted shared "
                                   "while L1 %d holds exclusive",
                                   e.node, e.l1, l1),
                         i, h.lastIdx, e.addr);
            }
            Holder &h = hold[e.l1];
            h.st = e.state;
            h.lastIdx = i;
            break;
          }

          case TraceKind::InvalRecv: {
            Holder &h =
                lines[nodeLineKey(e.node, lineNum(e.addr))][e.l1];
            h.st = 0;
            if (h.pendInv > 0)
                --h.pendInv;
            h.lastIdx = i;
            break;
          }

          case TraceKind::FwdService: {
            Holder &h =
                lines[nodeLineKey(e.node, lineNum(e.addr))][e.l1];
            h.st = e.state;
            h.lastIdx = i;
            break;
          }

          case TraceKind::VictimDrop:
          case TraceKind::VictimTaken: {
            // A victim is surrendered where the L2 takes it, though the
            // L1 drops the line only when its displacing fill lands.
            int l1 = e.kind == TraceKind::VictimDrop ? e.l1 : e.aux;
            Holder &h = lines[nodeLineKey(e.node, lineNum(e.addr))][l1];
            h.st = 0;
            h.lastIdx = i;
            break;
          }

          case TraceKind::InvalSent: {
            Holder &h =
                lines[nodeLineKey(e.node, lineNum(e.addr))][e.aux];
            ++h.pendInv;
            h.lastInvalSent = i;
            break;
          }

          case TraceKind::OwnerChange:
          case TraceKind::WbInstall:
          case TraceKind::L2Evict:
          case TraceKind::CmiPlan:
          case TraceKind::CmiInval:
            break; // context for violation windows only

          case TraceKind::Marker:
            if (e.value == markerSettled) {
                settled = true;
                rep.sawSettleMarker = true;
            }
            break;
        }
    }

    void
    finish()
    {
        if (settled)
            for (auto &[agent, il] : issues)
                for (std::size_t j = il.firstLive;
                     j < il.v.size() && !full(); ++j)
                    if (!il.v[j].committed)
                        flag("store-lost",
                             strFormat("store of %#llx to %#llx issued "
                                       "but never committed",
                                       (unsigned long long)il.v[j].value,
                                       (unsigned long long)il.v[j].addr),
                             il.v[j].idx, npos, il.v[j].addr);
        for (auto &[key, hold] : lines)
            for (auto &[l1, h] : hold)
                if (h.pendInv > 0 && !full())
                    flag("inval-lost",
                         strFormat("invalidation targeted at L1 %d was "
                                   "never delivered (%d outstanding)",
                                   l1, h.pendInv),
                         h.lastInvalSent, npos,
                         (key & ((std::uint64_t(1) << 48) - 1))
                             << lineShift);
    }
};

} // namespace

CheckReport
checkCoherence(const std::vector<TraceEvent> &trace,
               std::uint64_t dropped)
{
    Checker c;
    if (dropped > 0) {
        c.rep.truncated = true;
        return c.rep; // an incomplete prefix cannot be checked soundly
    }
    for (std::size_t i = 0; i < trace.size(); ++i) {
        c.onEvent(i, trace[i]);
        if (c.full())
            break;
    }
    c.finish();
    c.rep.eventsChecked = trace.size();
    return c.rep;
}

std::string
CheckReport::summary(const std::vector<TraceEvent> &trace,
                     std::size_t window) const
{
    std::string out;
    if (truncated)
        out += "trace truncated (ring dropped events): not checked\n";
    if (violations.empty() && !truncated)
        return out + strFormat("no violations in %llu events\n",
                               (unsigned long long)eventsChecked);
    for (const CheckViolation &v : violations) {
        out += strFormat("VIOLATION [%s] %s\n", v.axiom.c_str(),
                         v.detail.c_str());
        std::size_t lo = v.refIdx == CheckViolation::npos
                             ? (v.eventIdx > 64 ? v.eventIdx - 64 : 0)
                             : std::min(v.refIdx, v.eventIdx);
        std::size_t hi = std::min(
            std::max(v.refIdx == CheckViolation::npos ? 0 : v.refIdx,
                     v.eventIdx),
            trace.empty() ? 0 : trace.size() - 1);
        Addr line = lineNum(v.addr);
        std::vector<std::size_t> idxs;
        for (std::size_t i = lo; i <= hi && i < trace.size(); ++i)
            if (lineNum(trace[i].addr) == line ||
                trace[i].kind == TraceKind::Marker)
                idxs.push_back(i);
        if (idxs.size() > window) {
            // keep the edges of the window, elide the middle
            std::size_t keep = window / 2;
            std::vector<std::size_t> trimmed(idxs.begin(),
                                             idxs.begin() + keep);
            trimmed.push_back(npos); // ellipsis sentinel
            trimmed.insert(trimmed.end(), idxs.end() - keep,
                           idxs.end());
            idxs.swap(trimmed);
        }
        for (std::size_t i : idxs)
            out += i == npos
                       ? std::string("    ...\n")
                       : "  " + renderTraceEvent(i, trace[i]) + "\n";
    }
    return out;
}

} // namespace piranha
