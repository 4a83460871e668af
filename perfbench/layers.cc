#include "layers.h"

#include <cctype>

#include "stats/stats.h"

namespace perfbench {

using piranha::JsonValue;

namespace {

/** True when @p name ends in @p tag followed by one or more digits
 *  ("node0.l2b3" with tag ".l2b"). */
bool
endsNumbered(const std::string &name, const std::string &tag)
{
    std::size_t at = name.rfind(tag);
    if (at == std::string::npos || at + tag.size() == name.size())
        return false;
    for (std::size_t i = at + tag.size(); i < name.size(); ++i)
        if (!std::isdigit(static_cast<unsigned char>(name[i])))
            return false;
    return true;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

} // namespace

void
LayerTally::addScalars(const std::string &prefix, const JsonValue &g,
                       const std::vector<const char *> &keys)
{
    const JsonValue *scalars = g.find("scalars");
    if (!scalars)
        return;
    for (const char *k : keys)
        if (const JsonValue *v = scalars->find(k))
            _sum[prefix + "." + k] += v->asNumber();
}

void
LayerTally::addHist(const std::string &key, const JsonValue &g,
                    const char *hist)
{
    const JsonValue *hists = g.find("histograms");
    const JsonValue *h = hists ? hists->find(hist) : nullptr;
    if (!h)
        return;
    Hist &acc = _hists[key];
    acc.width = h->at("bucket_width").asNumber();
    const JsonValue &b = h->at("buckets");
    if (acc.buckets.size() < b.size())
        acc.buckets.resize(b.size(), 0.0);
    for (std::size_t i = 0; i < b.size(); ++i)
        acc.buckets[i] += b.at(i).asNumber();
}

void
LayerTally::addGroup(const JsonValue &g)
{
    const std::string &name = g.at("name").asString();
    if (endsWith(name, ".dl1")) {
        addScalars("l1d", g, {"hits", "misses", "upgrades", "writebacks"});
    } else if (endsWith(name, ".il1")) {
        addScalars("l1i", g, {"hits", "misses", "upgrades", "writebacks"});
    } else if (endsNumbered(name, ".l2b")) {
        addScalars("l2", g,
                   {"l2_hit", "l2_fwd", "mem_local", "mem_remote",
                    "remote_dirty", "evictions", "blocked"});
    } else if (endsNumbered(name, ".mc")) {
        addScalars("mc", g, {"reads", "writes", "page_hits", "page_misses"});
    } else if (name == "ics") {
        addScalars("ics", g, {"transfers", "data_transfers"});
        addHist("ics.queue_delay_ns", g, "queue_delay_ns");
    } else if (endsWith(name, ".he") || endsWith(name, ".re")) {
        std::string e = name.substr(name.size() - 2);
        addScalars(e, g, {"instructions", "tsrf_full", "queued"});
        addHist(e + ".occupancy_ns", g, "occupancy_ns");
    } else if (name == "network") {
        addScalars("net", g, {"packets", "hops", "misroutes"});
        addHist("net.latency_ns", g, "latency_ns");
    } else if (endsNumbered(name, "cpu")) {
        addScalars("core", g,
                   {"busy", "l2hit_stall", "l2miss_stall", "idle",
                    "instructions"});
    }
    if (const JsonValue *children = g.find("children"))
        for (const JsonValue &c : children->items())
            addGroup(c);
}

void
LayerTally::addStatTree(const JsonValue &tree)
{
    addGroup(tree);
}

void
LayerTally::addRun(const piranha::RunResult &r)
{
    _sum["run.events"] += static_cast<double>(r.eventsExecuted);
    _sum["run.events_equivalent"] +=
        static_cast<double>(r.eventsEquivalent);
    _sum["run.fast_inline_hits"] += static_cast<double>(r.fastInlineHits);
    _sum["run.fast_evented_hits"] +=
        static_cast<double>(r.fastEventedHits);
}

double
LayerTally::get(const std::string &key) const
{
    auto it = _sum.find(key);
    return it == _sum.end() ? 0.0 : it->second;
}

double
LayerTally::percentile(const std::string &key, double frac) const
{
    auto it = _hists.find(key);
    if (it == _hists.end() || it->second.buckets.empty())
        return 0.0;
    // Rebuild the merged histogram at bucket midpoints; percentile()
    // reads only bucket counts, so this gives the simulator's own
    // estimator over the summed distribution.
    const Hist &h = it->second;
    piranha::Histogram merged(h.width,
                              static_cast<unsigned>(h.buckets.size()));
    for (std::size_t i = 0; i < h.buckets.size(); ++i)
        if (h.buckets[i] > 0)
            merged.sample((static_cast<double>(i) + 0.5) * h.width,
                          static_cast<std::uint64_t>(h.buckets[i]));
    return merged.percentile(frac);
}

std::vector<Metric>
LayerTally::metrics() const
{
    double busy = get("core.busy"), hit = get("core.l2hit_stall"),
           miss = get("core.l2miss_stall"), idle = get("core.idle");
    double total = busy + hit + miss + idle;
    auto frac = [&](double v) { return total > 0 ? v / total : 0.0; };
    double pages = get("mc.page_hits") + get("mc.page_misses");

    return {
        {"sim.events", get("run.events"), "count"},
        {"sim.events_equivalent", get("run.events_equivalent"), "count"},
        {"cpu.instructions", get("core.instructions"), "count"},
        {"cpu.busy_frac", frac(busy), "frac"},
        {"cpu.l2hit_stall_frac", frac(hit), "frac"},
        {"cpu.l2miss_stall_frac", frac(miss), "frac"},
        {"cpu.idle_frac", frac(idle), "frac"},
        {"cpu.fast_inline_hits", get("run.fast_inline_hits"), "count"},
        {"cpu.fast_evented_hits", get("run.fast_evented_hits"), "count"},
        {"cache.l1d.hits", get("l1d.hits"), "count"},
        {"cache.l1d.misses", get("l1d.misses"), "count"},
        {"cache.l1i.misses", get("l1i.misses"), "count"},
        {"cache.l1.upgrades", get("l1d.upgrades") + get("l1i.upgrades"),
         "count"},
        {"cache.l1.writebacks",
         get("l1d.writebacks") + get("l1i.writebacks"), "count"},
        {"cache.l2.hit", get("l2.l2_hit"), "count"},
        {"cache.l2.fwd", get("l2.l2_fwd"), "count"},
        {"cache.l2.mem_local", get("l2.mem_local"), "count"},
        {"cache.l2.mem_remote", get("l2.mem_remote"), "count"},
        {"cache.l2.remote_dirty", get("l2.remote_dirty"), "count"},
        {"cache.l2.evictions", get("l2.evictions"), "count"},
        {"cache.l2.blocked", get("l2.blocked"), "count"},
        {"ics.transfers", get("ics.transfers"), "count"},
        {"ics.data_transfers", get("ics.data_transfers"), "count"},
        {"ics.queue_delay_ns.p50", percentile("ics.queue_delay_ns", 0.50),
         "ns"},
        {"ics.queue_delay_ns.p99", percentile("ics.queue_delay_ns", 0.99),
         "ns"},
        {"proto.he.instructions", get("he.instructions"), "count"},
        {"proto.re.instructions", get("re.instructions"), "count"},
        {"proto.he.occupancy_ns.p99", percentile("he.occupancy_ns", 0.99),
         "ns"},
        {"proto.re.occupancy_ns.p99", percentile("re.occupancy_ns", 0.99),
         "ns"},
        {"proto.tsrf_full", get("he.tsrf_full") + get("re.tsrf_full"),
         "count"},
        {"proto.queued", get("he.queued") + get("re.queued"), "count"},
        {"mem.reads", get("mc.reads"), "count"},
        {"mem.writes", get("mc.writes"), "count"},
        {"mem.page_hit_rate", pages > 0 ? get("mc.page_hits") / pages : 0.0,
         "frac"},
        {"noc.packets", get("net.packets"), "count"},
        {"noc.hops", get("net.hops"), "count"},
        {"noc.misroutes", get("net.misroutes"), "count"},
        {"noc.latency_ns.p50", percentile("net.latency_ns", 0.50), "ns"},
        {"noc.latency_ns.p99", percentile("net.latency_ns", 0.99), "ns"},
    };
}

} // namespace perfbench
