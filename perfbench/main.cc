/**
 * @file
 * perfbench: the simulator's one benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--known-failures skip|run]
 *             [--ledger perfbench/ledger.json] [--out-dir DIR]
 *             [--commit ID] [--source-digest HEX]
 *
 * --trace 0 repeats cold-cache samples of the workload for about S
 * seconds and reports the end-to-end metrics (host_s, sim_mips,
 * setup_s, peak_rss_mb, and in the text report failed_frac and
 * paper_err_pct) as median, quartiles and sample count. --trace 1 is
 * the separate traced run: it runs every layer driver, then alternates
 * untraced and traced samples, and reports the per-layer metrics plus
 * trace.overhead_frac.
 *
 * --seed selects the generated workload (generatorSeed: seeds outside
 * the range checked against the simulator wrap into it, and seeds the
 * ledger lists as known simulator failures are skipped visibly).
 *
 * Both print the run metadata first and, as the last line of standard
 * output, one JSON object {correct, attempted, failed, metrics}. The
 * exit code is non-zero when any correctness check failed.
 *
 * A sample fails when its run aborts, trips the watchdog or completes
 * less work than asked, when a sweep job fails, when its stat tree
 * differs from the run's first sample, or, at the pinned seed, from
 * the digest pinned in the ledger. A layer driver fails when its
 * checksum does not match its reference.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench.h"
#include "drivers.h"
#include "sim/logging.h"
#include "stats/json.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using piranha::JsonValue;

/** Extra constructions timed before each sample for setup_s. */
constexpr int kSetupReps = 20;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;    //!< the benchmark seed, as given
    std::uint64_t genSeed = 1; //!< the generator seed (generatorSeed)
    std::string seedNote;      //!< why genSeed differs from seed
    bool runKnownFailures = false;
    double seconds = 10;
    bool trace = false;
    std::string ledgerPath;
    JsonValue ledger;          //!< parsed ledger; null without one
    std::string outDir;
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--known-failures skip|run] "
                 "[--ledger FILE] [--out-dir DIR] [--commit ID] "
                 "[--source-digest HEX]\nworkloads:";
    for (const WorkloadDef &w : workloadDefs())
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

JsonValue
readLedger(const std::string &path)
{
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    if (!is)
        usage("cannot read ledger " + path);
    return piranha::parseJson(ss.str());
}

/**
 * The generator seed for benchmark seed @p o.seed. The ledger records
 * the generator seeds that were run on every workload (checked_seeds:
 * 0 to below - 1) and, under known_failures, the ones among them that
 * drive a workload into a simulator bug. A benchmark seed outside the
 * checked range wraps into it; one listed for this workload moves on
 * to the next unlisted seed, unless --known-failures run asks for the
 * failure. Every change is explained in @p note, which the run
 * metadata prints. Without a ledger the seed is used as given.
 */
std::uint64_t
generatorSeed(const Options &o, std::string &note)
{
    if (!o.ledger.isObject())
        return o.seed;
    const std::uint64_t range = static_cast<std::uint64_t>(
        o.ledger.at("checked_seeds").at("below").asNumber());
    const JsonValue &known = o.ledger.at("known_failures");
    auto listed = [&](std::uint64_t s) -> const JsonValue * {
        for (std::size_t i = 0; i < known.size(); ++i) {
            const JsonValue &k = known.at(i);
            if (k.at("workload").asString() == o.workload &&
                static_cast<std::uint64_t>(k.at("seed").asNumber()) == s)
                return &k;
        }
        return nullptr;
    };
    std::uint64_t s = o.seed % range;
    if (s != o.seed)
        note += piranha::strFormat("seed %llu wraps to %llu (checked "
                                   "seeds are 0-%llu); ",
                                   static_cast<unsigned long long>(o.seed),
                                   static_cast<unsigned long long>(s),
                                   static_cast<unsigned long long>(range - 1));
    if (o.runKnownFailures)
        return s;
    for (const JsonValue *k; (k = listed(s));) {
        note += piranha::strFormat("seed %llu is a known failure of %s (%s); ",
                                   static_cast<unsigned long long>(s),
                                   o.workload.c_str(),
                                   k->at("failure").asString().c_str());
        s = (s + 1) % range;
    }
    if (s != o.seed)
        note += piranha::strFormat("generator seed %llu",
                                   static_cast<unsigned long long>(s));
    return s;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--known-failures")
            o.runKnownFailures = v == "run";
        else if (a == "--ledger")
            o.ledgerPath = v;
        else if (a == "--out-dir")
            o.outDir = v;
        else if (a == "--commit")
            o.commit = v;
        else if (a == "--source-digest")
            o.sourceDigest = v;
        else
            usage("unknown argument " + a);
    }
    if (!findWorkload(o.workload))
        usage("unknown workload '" + o.workload + "'");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    if (!o.ledgerPath.empty())
        o.ledger = readLedger(o.ledgerPath);
    o.genSeed = generatorSeed(o, o.seedNote);
    return o;
}

/** The digest the ledger pins for @p workload at @p o's generator
 *  seed; "" if none. */
std::string
pinnedDigest(const Options &o, const std::string &workload)
{
    if (!o.ledger.isObject())
        return "";
    const JsonValue &pin = o.ledger.at("pinned");
    if (static_cast<std::uint64_t>(pin.at("seed").asNumber()) != o.genSeed)
        return "";
    const JsonValue *d = pin.at("digests").find(workload);
    return d ? d->asString() : "";
}

JsonValue
metadata(const Options &o, const WorkloadDef &w)
{
    JsonValue m = JsonValue::object();
    m.set("workload", w.name);
    m.set("system", w.system);
    m.set("work", std::to_string(w.totalWork) + " " + w.workUnit);
    m.set("seed", o.seed);
    m.set("generator_seed", o.genSeed);
    if (!o.seedNote.empty())
        m.set("seed_note", o.seedNote);
    m.set("trace", o.trace);
    m.set("seconds", o.seconds);
    m.set("caches", "start cold: fresh system per sample, no warm-up");
    m.set("nproc", static_cast<std::uint64_t>(hostCpus()));
    m.set("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
    m.set("compiler", "clang " __clang_version__);
#else
    m.set("compiler", "gcc " __VERSION__);
#endif
    m.set("commit", o.commit);
    m.set("source_digest", o.sourceDigest);
    return m;
}

/** Fail samples whose stat tree differs from the first or the pin. */
void
checkDigests(std::vector<SampleResult *> &samples, const std::string &pin)
{
    for (SampleResult *s : samples) {
        if (!s->ok)
            continue;
        if (s->digest != samples.front()->digest) {
            s->ok = false;
            s->failure = "stat tree differs from the run's first sample";
        } else if (!pin.empty() && hex64(s->digest) != pin) {
            s->ok = false;
            s->failure = "stat-tree digest " + hex64(s->digest) +
                         " differs from pinned " + pin;
        }
    }
}

Summary
over(const std::vector<SampleResult *> &samples,
     double (*f)(const SampleResult &))
{
    std::vector<double> v;
    for (const SampleResult *s : samples)
        v.push_back(f(*s));
    return summarize(v);
}

void
printRow(const std::string &name, const std::string &unit,
         const Summary &s)
{
    std::printf("  %-14s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g "
                "spread %6.2f%%  n=%zu\n",
                name.c_str(), unit.c_str(), s.median, s.q1, s.q3,
                100 * s.spread(), s.n);
}

void
writeFile(const std::string &dir, const std::string &name,
          const JsonValue &v)
{
    if (dir.empty())
        return;
    std::string path = dir + "/" + name;
    std::ofstream os(path);
    v.write(os, 1);
    os << "\n";
    if (!os)
        std::cerr << "perfbench: cannot write " << path << "\n";
    else
        std::printf("report: %s\n", path.c_str());
}

JsonValue
sampleJson(const SampleResult &s)
{
    JsonValue o = JsonValue::object();
    o.set("ok", s.ok);
    if (!s.ok)
        o.set("failure", s.failure);
    o.set("setup_s", s.setupS);
    o.set("host_s", s.hostS);
    o.set("cpu_s", s.cpuS);
    o.set("instructions", s.instructions);
    o.set("digest", hex64(s.digest));
    return o;
}

JsonValue
metricsJson(const std::vector<Metric> &ms)
{
    JsonValue o = JsonValue::object();
    for (const Metric &m : ms) {
        JsonValue v = JsonValue::object();
        v.set("value", std::isfinite(m.value) ? m.value : 0.0);
        v.set("unit", m.unit);
        o.set(m.name, std::move(v));
    }
    return o;
}

/** Print the failures and the result line; returns the exit code. */
int
finish(std::uint64_t attempted, const std::vector<std::string> &failures,
       const std::vector<Metric> &metrics)
{
    for (const std::string &f : failures)
        std::printf("FAILED: %s\n", f.c_str());
    JsonValue out = JsonValue::object();
    out.set("correct", failures.empty());
    out.set("attempted", attempted);
    out.set("failed", static_cast<std::uint64_t>(failures.size()));
    out.set("metrics", metricsJson(metrics));
    std::printf("%s\n", out.dump(0).c_str());
    std::fflush(stdout);
    return failures.empty() ? 0 : 1;
}

std::string
fileStem(const Options &o)
{
    return o.workload + "-seed" + std::to_string(o.seed) + "-trace" +
           (o.trace ? "1" : "0");
}

int
runEndToEnd(const Options &o, const WorkloadDef &w, JsonValue report)
{
    const std::string pin = pinnedDigest(o, w.name);
    std::vector<SampleResult> store;
    Clock::time_point start = Clock::now();
    // The process's first construction pays for the page faults of its
    // fresh heap, as a user's single construction does. It is reported
    // on its own; later ones reuse pages the allocator kept.
    const double first_setup = measureSetup(w, o.genSeed);
    // Set-up takes milliseconds, so one per sample is too few for a
    // steady median; extra constructions are timed before each sample,
    // which spreads them over the run like the samples.
    std::vector<double> setups;
    // Samples run back to back while the next one is expected to end
    // inside the time budget; at least one always runs.
    for (double last = 0;
         store.empty() || secondsSince(start) + last <= o.seconds;) {
        Clock::time_point t = Clock::now();
        for (int i = 0; i < kSetupReps; ++i)
            setups.push_back(measureSetup(w, o.genSeed));
        store.push_back(runSample(w, o.genSeed, nullptr,
                                  static_cast<unsigned>(store.size())));
        last = secondsSince(t);
    }
    std::vector<SampleResult *> samples;
    for (SampleResult &s : store)
        samples.push_back(&s);
    checkDigests(samples, pin);

    Summary host = over(samples, [](const SampleResult &s) {
        return s.hostS;
    });
    Summary mips = over(samples, [](const SampleResult &s) {
        return s.instructions / s.hostS / 1e6;
    });
    for (const SampleResult *s : samples)
        setups.push_back(s->setupS);
    Summary cpu = over(samples, [](const SampleResult &s) {
        return s.cpuS;
    });
    Summary setup = summarize(setups);
    double rss = peakRssMb();
    std::vector<std::string> failures;
    for (const SampleResult *s : samples)
        if (!s->ok)
            failures.push_back(s->failure);

    std::printf("end-to-end (tracing off):\n");
    printRow("host_s", "s", host);
    printRow("host_cpu_s", "s", cpu);
    printRow("sim_mips", "MIPS", mips);
    printRow("setup_s", "s", setup);
    printRow("setup_first_s", "s", summarize({first_setup}));
    printRow("peak_rss_mb", "MB", summarize({rss}));
    std::printf("  %-14s %-6s %.6g (%zu of %zu runs failed)\n",
                "failed_frac", "frac",
                static_cast<double>(failures.size()) / samples.size(),
                failures.size(), samples.size());
    const SampleResult &first = *samples.front();
    if (first.paperErrPct >= 0) {
        std::printf("  %-14s %-6s %.6g  (Fig. 7:", "paper_err_pct", "%",
                    first.paperErrPct);
        for (const Metric &p : first.paperPoints)
            std::printf(" %s %.3f", p.name.c_str(), p.value);
        std::printf("; paper 3.0 / 2.6 / 1.5)\n");
    } else {
        std::printf("  %-14s %-6s unvalidated: no paper point for this "
                    "workload\n",
                    "paper_err_pct", "%");
    }
    std::printf("stat digest %s (%s)\n", hex64(first.digest).c_str(),
                pin.empty() ? "not pinned for this seed"
                            : ("pinned " + pin).c_str());

    JsonValue arr = JsonValue::array();
    for (const SampleResult *s : samples)
        arr.append(sampleJson(*s));
    report.set("samples", std::move(arr));
    if (first.paperErrPct >= 0)
        report.set("paper_err_pct", first.paperErrPct);
    report.set("setup_first_s", first_setup);
    report.set("failed_frac",
               static_cast<double>(failures.size()) / samples.size());
    writeFile(o.outDir, fileStem(o) + ".json", report);

    return finish(samples.size(), failures,
                  {{"host_s", host.median, "s"},
                   {"sim_mips", mips.median, "MIPS"},
                   {"setup_s", setup.median, "s"},
                   {"peak_rss_mb", rss, "MB"}});
}

int
runTraced(const Options &o, const WorkloadDef &w, JsonValue report)
{
    const std::string pin = pinnedDigest(o, w.name);
    Tracer tracer;
    Clock::time_point start = Clock::now();
    // The process's first construction, before any driver touches the
    // heap (see runEndToEnd).
    const double first_setup = measureSetup(w, o.genSeed);

    std::vector<DriverResult> drivers = runLayerDrivers(tracer, 0);
    drivers.push_back(runParallelDriver(w, tracer, 0));

    // Alternate untraced and traced samples so host noise hits both
    // alike; their medians give the tracing overhead.
    std::vector<SampleResult> plain, traced;
    for (double last = 0;
         traced.empty() || secondsSince(start) + last <= o.seconds;) {
        Clock::time_point t = Clock::now();
        unsigned run = static_cast<unsigned>(traced.size()) + 1;
        plain.push_back(runSample(w, o.genSeed, nullptr, run));
        traced.push_back(runSample(w, o.genSeed, &tracer, run));
        last = secondsSince(t);
    }
    std::vector<SampleResult *> all, tr;
    for (std::size_t i = 0; i < plain.size(); ++i) {
        all.push_back(&plain[i]);
        all.push_back(&traced[i]);
        tr.push_back(&traced[i]);
    }
    checkDigests(all, pin);

    std::vector<std::string> failures;
    for (const SampleResult *s : all)
        if (!s->ok)
            failures.push_back(s->failure);
    for (const DriverResult &d : drivers)
        if (!d.ok)
            failures.push_back(d.failure);

    const SampleResult &last = *tr.back();
    std::vector<Metric> ms = last.layers.metrics();
    double events = 0;
    for (const Metric &m : ms)
        if (m.name == "sim.events")
            events = m.value;
    auto med = [&](double (*f)(const SampleResult &)) {
        return over(tr, f).median;
    };
    std::vector<SampleResult *> untraced;
    for (SampleResult &s : plain)
        untraced.push_back(&s);
    double host_plain = over(untraced, [](const SampleResult &s) {
        return s.hostS;
    }).median;
    double host_traced = med([](const SampleResult &s) { return s.hostS; });

    ms.push_back({"sim.host_ns_per_event",
                  events > 0 ? med([](const SampleResult &s) {
                      return s.runSelfS;
                  }) * 1e9 / events
                             : 0.0,
                  "ns"});
    for (const DriverResult &d : drivers)
        ms.insert(ms.end(), d.metrics.begin(), d.metrics.end());
    ms.push_back({"workload.next_calls",
                  static_cast<double>(last.nextCalls), "count"});
    ms.push_back({"workload.self_s",
                  med([](const SampleResult &s) { return s.nextSelfS; }),
                  "s"});
    ms.push_back({"workload.share", med([](const SampleResult &s) {
                      double base = s.jobSSum > 0 ? s.jobSSum : s.hostS;
                      return base > 0 ? s.nextSelfS / base : 0.0;
                  }),
                  "frac"});
    ms.push_back({"system.construct_s",
                  med([](const SampleResult &s) { return s.constructS; }),
                  "s"});
    ms.push_back({"system.first_setup_s", first_setup, "s"});
    ms.push_back({"stats.snapshot_s",
                  med([](const SampleResult &s) { return s.snapshotS; }),
                  "s"});
    ms.push_back({"harness.wall_s",
                  med([](const SampleResult &s) { return s.harnessWallS; }),
                  "s"});
    ms.push_back({"harness.job_s_sum",
                  med([](const SampleResult &s) { return s.jobSSum; }),
                  "s"});
    ms.push_back({"harness.core_util", med([](const SampleResult &s) {
                      double cap = s.threads * s.harnessWallS;
                      return cap > 0 ? s.jobSSum / cap : 0.0;
                  }),
                  "frac"});
    double jobs_failed = 0;
    for (const SampleResult *s : tr)
        jobs_failed += s->jobsFailed;
    ms.push_back({"harness.jobs_failed", jobs_failed, "count"});
    ms.push_back({"trace.overhead_frac",
                  host_plain > 0 ? host_traced / host_plain - 1 : 0.0,
                  "frac"});

    std::printf("per-layer (traced run, %zu traced + %zu untraced "
                "samples, %zu drivers):\n",
                tr.size(), untraced.size(), drivers.size());
    for (const Metric &m : ms)
        std::printf("  %-34s %-8s %.6g\n", m.name.c_str(), m.unit.c_str(),
                    m.value);
    std::printf("L1 access latency vs paper Table 1 (P8): l1 2, l2_hit "
                "16, l2_fwd 24, mem_local 80, mem_remote 120, "
                "remote_dirty 180 ns\n");

    JsonValue arr = JsonValue::array();
    for (const SampleResult *s : all)
        arr.append(sampleJson(*s));
    report.set("samples", std::move(arr));
    report.set("per_layer", metricsJson(ms));
    writeFile(o.outDir, fileStem(o) + ".json", report);
    JsonValue spans = JsonValue::object();
    spans.set("meta", report.at("meta"));
    spans.set("spans", tracer.toJson());
    writeFile(o.outDir, fileStem(o) + ".spans.json", spans);

    return finish(all.size() + drivers.size(), failures, ms);
}

int
runWorkload(const Options &o, const WorkloadDef &w)
{
    JsonValue report = JsonValue::object();
    report.set("meta", metadata(o, w));
    std::printf("# perfbench %s\n# meta %s\n", w.name,
                report.at("meta").dump(0).c_str());
    try {
        return o.trace ? runTraced(o, w, std::move(report))
                       : runEndToEnd(o, w, std::move(report));
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options o = parseArgs(argc, argv);
    return runWorkload(o, *findWorkload(o.workload));
}
