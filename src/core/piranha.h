/**
 * @file
 * Public API of the Piranha simulator.
 *
 * Quickstart:
 * @code
 *   #include "core/piranha.h"
 *
 *   piranha::OltpWorkload oltp;
 *   piranha::PiranhaSystem sys(piranha::configP8());
 *   piranha::RunResult r = sys.run(oltp, 300);
 *   std::cout << r.config << " time " << r.execTime << " ps\n";
 * @endcode
 *
 * Layers, bottom-up:
 *  - sim/    deterministic event kernel, clocks, RNG
 *  - stats/  counters, histograms, report tables
 *  - mem/    line payloads, directory codec, ECC, RDRAM, controllers
 *  - cache/  L1s and the non-inclusive shared L2 with duplicate tags
 *  - ics/    intra-chip switch
 *  - proto/  microcoded home/remote protocol engines
 *  - noc/    packets, link codec, hot-potato router fabric
 *  - cpu/    in-order (Piranha) and out-of-order (baseline) cores
 *  - workload/ OLTP / DSS / TPC-C synthetic generators
 *  - system/ chip & system assembly, Table-1 configurations
 *  - harness/ parallel experiment sweeps with JSON result export
 *  - fault/  seeded fault-injection plans and outcome campaigns
 */

#ifndef PIRANHA_CORE_PIRANHA_H
#define PIRANHA_CORE_PIRANHA_H

#include "fault/campaign.h"
#include "harness/sweep.h"
#include "harness/sweep_runner.h"
#include "stats/json_writer.h"
#include "system/config.h"
#include "system/sim_system.h"
#include "workload/dss.h"
#include "workload/oltp.h"

#endif // PIRANHA_CORE_PIRANHA_H
