/**
 * @file
 * Simulated per-layer counts, read from the stat tree a run leaves
 * behind (statGroupToJson) and from its RunResult. These are exact:
 * the simulator is deterministic, so they repeat bit for bit.
 */

#ifndef PIRANHA_PERFBENCH_LAYERS_H
#define PIRANHA_PERFBENCH_LAYERS_H

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "stats/json.h"
#include "system/sim_system.h"

namespace perfbench {

/** Sums simulated counts over every node, bank and core of one or more
 *  runs (a sweep adds each job). */
class LayerTally
{
  public:
    void addStatTree(const piranha::JsonValue &tree);
    void addRun(const piranha::RunResult &r);

    /** The simulated per-layer metrics (cpu, cache, ics, proto, mem,
     *  noc and the sim event counts). */
    std::vector<Metric> metrics() const;

  private:
    struct Hist
    {
        double width = 0;
        std::vector<double> buckets;
    };

    void addGroup(const piranha::JsonValue &g);
    void addScalars(const std::string &prefix, const piranha::JsonValue &g,
                    const std::vector<const char *> &keys);
    void addHist(const std::string &key, const piranha::JsonValue &g,
                 const char *hist);
    double get(const std::string &key) const;
    double percentile(const std::string &key, double frac) const;

    std::map<std::string, double> _sum;
    std::map<std::string, Hist> _hists;
};

} // namespace perfbench

#endif // PIRANHA_PERFBENCH_LAYERS_H
