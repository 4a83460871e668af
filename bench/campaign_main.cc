/**
 * @file
 * Fault-injection campaign driver (DESIGN.md §9, EXPERIMENTS.md).
 *
 * Runs K seeded injected runs of one workload and prints the outcome
 * histogram; --json writes the full campaign report. Ctrl-C drains
 * gracefully: in-flight runs finish, queued ones are skipped, and the
 * partial report is still written (exit code 130).
 *
 * Usage:
 *   campaign_main [--injections K] [--seed S] [--count N]
 *                 [--kinds k1,k2,...] [--nodes N] [--workload oltp|dss]
 *                 [--work W] [--threads N] [--serial] [--json FILE]
 *                 [--max-time-us U] [--check-trace] [--list-kinds]
 */

#include <atomic>
#include <csignal>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "bench_util.h"

using namespace piranha;

namespace {

std::atomic<bool> g_interrupted{false};

void
onSigint(int)
{
    g_interrupted.store(true);
}

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
    std::string workload = "oltp", json_path;
    std::uint64_t total_work = 256;
    unsigned nodes = 1;
    SweepOptions opts;
    opts.progress = &std::cerr;
    bool process_only = false; // a flag only the process tier reads

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list-kinds") {
            for (unsigned k = 0;
                 k < static_cast<unsigned>(FaultKind::kNumKinds); ++k)
                std::cout << faultKindName(static_cast<FaultKind>(k))
                          << "\n";
            return 0;
        } else if (arg == "--injections" && i + 1 < argc) {
            if (!parseNumber(argv[++i], spec.injections))
                return usage();
        } else if (arg == "--seed" && i + 1 < argc) {
            if (!parseNumber(argv[++i], spec.baseSeed))
                return usage();
        } else if (arg == "--count" && i + 1 < argc) {
            if (!parseNumber(argv[++i], spec.planTemplate.count))
                return usage();
        } else if (arg == "--kinds" && i + 1 < argc) {
            if (!parseKinds(argv[++i], spec.planTemplate.kinds))
                return 2;
        } else if (arg == "--nodes" && i + 1 < argc) {
            if (!parseNumber(argv[++i], nodes))
                return usage();
        } else if (arg == "--workload" && i + 1 < argc) {
            workload = argv[++i];
        } else if (arg == "--work" && i + 1 < argc) {
            if (!parseNumber(argv[++i], total_work))
                return usage();
        } else if (arg == "--threads" && i + 1 < argc) {
            if (!parseNumber(argv[++i], opts.threads))
                return usage();
        } else if (arg == "--serial") {
            opts.threads = 1;
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--max-time-us" && i + 1 < argc) {
            Tick us;
            if (!parseNumber(argv[++i], us) ||
                us > std::numeric_limits<Tick>::max() / ticksPerUs)
                return usage();
            spec.maxTime = us * ticksPerUs;
        } else if (arg == "--check-trace") {
            spec.checkTrace = true;
        } else if (arg == "--exec" && i + 1 < argc) {
            std::string e = argv[++i];
            if (e == "process")
                opts.exec = ExecTier::Process;
            else if (e == "thread")
                opts.exec = ExecTier::Thread;
            else
                return usage();
        } else if (arg == "--journal" && i + 1 < argc) {
            opts.journalDir = argv[++i];
        } else if (arg == "--resume") {
            opts.resume = true;
        } else if (arg == "--grace" && i + 1 < argc) {
            process_only = true;
            if (!parseNumber(argv[++i], opts.killGraceSec))
                return usage();
        } else if (arg == "--timeout" && i + 1 < argc) {
            if (!parseNumber(argv[++i], opts.jobTimeoutSec))
                return usage();
        } else if (arg == "--retries" && i + 1 < argc) {
            process_only = true;
            if (!parseNumber(argv[++i], opts.maxAttempts))
                return usage();
        } else {
            return usage();
        }
    }
    if (spec.injections == 0 || nodes == 0 ||
        (process_only && opts.exec != ExecTier::Process))
        return usage();
    if (opts.resume && opts.journalDir.empty()) {
        std::cerr << "--resume requires --journal DIR\n";
        return 2;
    }

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

    std::signal(SIGINT, onSigint);
    opts.cancel = &g_interrupted;

    CampaignReport report = CampaignRunner(opts).run(spec);

    TextTable t({"Outcome", "Runs"});
    for (const auto &[k, v] : report.histogram())
        t.addRow({k, std::to_string(v)});
    t.print(std::cout);
    std::printf("\n%zu/%u runs in %.2fs host time%s\n",
                report.runs.size(), spec.injections,
                report.hostSeconds,
                report.interrupted ? " (interrupted)" : "");

    if (!json_path.empty()) {
        if (!report.writeJsonFile(json_path))
            return 1;
        std::cout << "report written to " << json_path << "\n";
    }
    if (report.interrupted)
        return 130;
    for (const InjectionRecord &r : report.runs)
        if (r.outcome == FaultOutcome::Failed)
            return 1;
    return 0;
}
