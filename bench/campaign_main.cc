/**
 * @file
 * Fault-injection campaign driver (DESIGN.md §9, EXPERIMENTS.md).
 *
 * Runs K seeded injected runs of one workload and prints the outcome
 * histogram; --json writes the campaign's sweep report, each job with
 * its `faults` record. Ctrl-C drains gracefully: in-flight runs
 * finish, queued ones are skipped, and the partial report is still
 * written (exit code 130). A failed injection (the host stopped it,
 * its body threw or its worker died) exits 1.
 *
 * Usage:
 *   campaign_main [--injections K] [--seed S] [--count N]
 *                 [--kinds k1,k2,...] [--nodes N] [--workload oltp|dss]
 *                 [--work W] [--threads N] [--serial] [--json FILE]
 *                 [--max-time-us U] [--check-trace] [--list-kinds]
 */

#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "bench_util.h"

using namespace piranha;

namespace {

int
usage()
{
    std::cerr
        << "usage: campaign_main [options]\n"
        << "  --injections K  seeded runs (default 16)\n"
        << "  --seed S        base seed; run i uses S+i (default 1)\n"
        << "  --count N       faults drawn per run (default 1)\n"
        << "  --kinds a,b,..  fault kinds to draw from (default all;\n"
        << "                  see --list-kinds)\n"
        << "  --nodes N       chips (default 1; >1 enables net faults)\n"
        << "  --workload W    oltp | dss (default oltp)\n"
        << "  --work W        total work units (default 256)\n"
        << "  --threads N     worker threads (default: all cores)\n"
        << "  --serial        same as --threads 1\n"
        << "  --json FILE     write the campaign report to FILE\n"
        << "  --max-time-us U simulated-time bound per run\n"
        << "  --check-trace   attach the coherence checker to every\n"
        << "                  run (classifies silent corruption)\n"
        << "  --exec TIER     execution tier: thread|process\n"
        << "  --journal DIR   job journal for --resume\n"
        << "  --resume        skip journal-completed runs "
           "(requires --journal)\n"
        << "  --timeout SEC   per-run host wall-clock timeout\n"
        << "  --grace SEC     with --exec process: SIGTERM/SIGKILL grace\n"
        << "                  past --timeout (default 1)\n"
        << "  --retries N     with --exec process: max attempts per run\n"
        << "                  whose worker dies (default 1)\n"
        << "  --list-kinds    print the known fault kinds\n";
    return 2;
}

bool
parseKinds(const std::string &arg, std::vector<FaultKind> &out)
{
    std::stringstream ss(arg);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
        FaultKind k = faultKindFromName(tok.c_str());
        if (k == FaultKind::kNumKinds) {
            std::cerr << "unknown fault kind \"" << tok
                      << "\" (try --list-kinds)\n";
            return false;
        }
        out.push_back(k);
    }
    return !out.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    CampaignSpec spec;
    spec.name = "campaign";
    spec.planTemplate.count = 1;
    std::string workload = "oltp";
    std::uint64_t total_work = 256;
    unsigned nodes = 1;
    BenchArgs args;
    args.opts.progress = &std::cerr;

    int rc = parseBenchArgs(argc, argv, args, usage, [&](int &i) {
        std::string arg = argv[i];
        bool has_value = i + 1 < argc;
        if (arg == "--list-kinds") {
            for (unsigned k = 0;
                 k < static_cast<unsigned>(FaultKind::kNumKinds); ++k)
                std::cout << faultKindName(static_cast<FaultKind>(k))
                          << "\n";
            return 0;
        } else if (arg == "--injections" && has_value) {
            if (!parseNumber(argv[++i], spec.injections))
                return usage();
        } else if (arg == "--seed" && has_value) {
            if (!parseNumber(argv[++i], spec.baseSeed))
                return usage();
        } else if (arg == "--count" && has_value) {
            if (!parseNumber(argv[++i], spec.planTemplate.count))
                return usage();
        } else if (arg == "--kinds" && has_value) {
            if (!parseKinds(argv[++i], spec.planTemplate.kinds))
                return 2;
        } else if (arg == "--nodes" && has_value) {
            if (!parseNumber(argv[++i], nodes))
                return usage();
        } else if (arg == "--workload" && has_value) {
            workload = argv[++i];
        } else if (arg == "--work" && has_value) {
            if (!parseNumber(argv[++i], total_work))
                return usage();
        } else if (arg == "--max-time-us" && has_value) {
            Tick us;
            if (!parseNumber(argv[++i], us) ||
                us > std::numeric_limits<Tick>::max() / ticksPerUs)
                return usage();
            spec.maxTime = us * ticksPerUs;
        } else if (arg == "--check-trace") {
            spec.checkTrace = true;
        } else {
            return usage();
        }
        return kRunBench;
    });
    if (rc != kRunBench)
        return rc;
    if (spec.injections == 0 || nodes == 0)
        return usage();

    spec.config = configP8(nodes);
    if (workload == "oltp") {
        spec.workload = WorkloadDecl{
            "OLTP", [] { return std::make_unique<OltpWorkload>(); },
            total_work};
    } else if (workload == "dss") {
        spec.workload = WorkloadDecl{
            "DSS", [] { return std::make_unique<DssWorkload>(); },
            total_work};
    } else {
        std::cerr << "unknown workload \"" << workload << "\"\n";
        return 2;
    }

    drainOnSigint(args.opts);
    SweepReport report = CampaignRunner(args.opts).run(spec);

    std::map<std::string, unsigned> hist = outcomeHistogram(report);
    unsigned ran = 0;
    TextTable t({"Outcome", "Runs"});
    for (const auto &[k, v] : hist) {
        t.addRow({k, std::to_string(v)});
        ran += v;
    }
    t.print(std::cout);
    std::printf("\n%u/%u runs in %.2fs host time%s\n", ran,
                spec.injections, report.hostSeconds,
                report.interrupted ? " (interrupted)" : "");

    if (!args.jsonPath.empty()) {
        if (!report.writeJsonFile(args.jsonPath))
            return 1;
        std::cout << "report written to " << args.jsonPath << "\n";
    }
    if (report.interrupted)
        return 130;
    return hist.count("failed") ? 1 : 0;
}
