/**
 * @file
 * Generic sweep driver and the figure registry: runs a named
 * experiment sweep from the registry below on a host-thread pool and
 * writes a machine-readable JSON report next to the live progress
 * lines. After the job table, a sweep that reproduces a paper figure
 * (fig5, fig6a, fig6b, fig7, fig8, sens) or a §2 claim (openpage,
 * pdir, cmi) prints its measured values beside the paper's.
 *
 * Usage:
 *   sweep_main --list
 *   sweep_main <sweep> [--threads N] [--serial] [--json FILE]
 *              [--timeout SEC] [--no-stat-tree] [--verify]
 *
 * --verify runs the sweep twice — serial, then on the thread pool —
 * and checks that every job's stats (including the full StatGroup
 * snapshot) are bit-identical, printing the parallel speedup. This is
 * the determinism guarantee the harness is built on: each job is its
 * own EventQueue universe, so host-thread scheduling cannot perturb
 * simulated results.
 */

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench_util.h"
#include "check/litmus.h"
#include "check/trace.h"

using namespace piranha;

namespace {

SweepSpec
sweepFig5()
{
    SweepSpec s("fig5");
    s.addConfig(configP1())
        .addConfig(configINO())
        .addConfig(configOOO())
        .addConfig(configP8())
        .addWorkload(
            "OLTP", [] { return std::make_unique<OltpWorkload>(); },
            kOltpTotalTxns)
        .addWorkload(
            "DSS", [] { return std::make_unique<DssWorkload>(); },
            kDssTotalChunks);
    return s;
}

/** P1, P2, P4 and P8 under OLTP: all of Fig. 6(b), most of 6(a). */
SweepSpec
sweepOnChipCpus(const char *name)
{
    SweepSpec s(name);
    for (unsigned n : {1u, 2u, 4u, 8u})
        s.addConfig(configPn(n));
    s.addWorkload(
        "OLTP", [] { return std::make_unique<OltpWorkload>(); },
        kOltpTotalTxns);
    return s;
}

SweepSpec
sweepFig6a()
{
    SweepSpec s = sweepOnChipCpus("fig6a");
    s.addConfig(configOOO());
    return s;
}

SweepSpec
sweepFig6b()
{
    return sweepOnChipCpus("fig6b");
}

/** Transactions per Fig. 7 point, whatever the system size. */
constexpr std::uint64_t kFig7TotalTxns = 1920;

/**
 * Fig. 7: OLTP on one to four chips of P4 and of OOO. Largest systems
 * first, so the long jobs start together and the short ones fill in
 * behind them.
 */
SweepSpec
sweepFig7()
{
    SweepSpec s("fig7");
    for (unsigned chips = 4; chips >= 1; --chips) {
        for (SystemConfig cfg : {configPn(4, chips), configOOO(chips)}) {
            SweepPoint pt;
            pt.label = strFormat("%s/%uchip", cfg.name.c_str(), chips);
            pt.config = std::move(cfg);
            pt.workload = WorkloadDecl{
                "OLTP", [] { return std::make_unique<OltpWorkload>(); },
                kFig7TotalTxns};
            s.addPoint(std::move(pt));
        }
    }
    return s;
}

SweepSpec
sweepFig8()
{
    SweepSpec s("fig8");
    s.addConfig(configOOO())
        .addConfig(configP8())
        .addConfig(configP8F())
        .addWorkload(
            "OLTP", [] { return std::make_unique<OltpWorkload>(); },
            kOltpTotalTxns)
        .addWorkload(
            "DSS", [] { return std::make_unique<DssWorkload>(); },
            kDssTotalChunks);
    return s;
}

SweepSpec
sweepSens()
{
    SweepSpec s("sens");
    s.addConfig(configP8())
        .addConfig(configP8Pessimistic())
        .addConfig(configOOO())
        .addWorkload(
            "OLTP", [] { return std::make_unique<OltpWorkload>(); },
            kOltpTotalTxns)
        .addWorkload(
            "OLTP-C",
            [] {
                return std::make_unique<OltpWorkload>(
                    OltpWorkload::tpccParams(), 1, "OLTP(TPC-C)");
            },
            800);
    return s;
}

/** Small grid for smoke checks and harness demos. */
SweepSpec
sweepQuick()
{
    SweepSpec s("quick");
    for (unsigned n : {1u, 2u, 4u, 8u})
        s.addConfig(configPn(n));
    s.addWorkload(
        "OLTP", [] { return std::make_unique<OltpWorkload>(); }, 128)
        .addWorkload(
            "DSS", [] { return std::make_unique<DssWorkload>(); }, 16);
    return s;
}

/** RDRAM keep-open windows of the §2.4 study, in ns. */
constexpr double kKeepOpenNs[] = {0, 100, 250, 500, 1000, 2000, 4000};

std::string
keepOpenConfig(double keep_ns)
{
    return strFormat("P8-keep%.0fns", keep_ns);
}

/** §2.4: P8 under OLTP and DSS at each keep-open window. */
SweepSpec
sweepOpenPage()
{
    SweepSpec s("openpage");
    for (double keep : kKeepOpenNs) {
        SystemConfig cfg = configP8();
        cfg.name = keepOpenConfig(keep);
        cfg.chip.rdram.keepOpenNs = keep;
        s.addConfig(std::move(cfg));
    }
    s.addWorkload(
         "OLTP", [] { return std::make_unique<OltpWorkload>(); }, 1200)
        .addWorkload(
            "DSS", [] { return std::make_unique<DssWorkload>(); }, 48);
    return s;
}

std::string
pdirLabel(unsigned nodes, bool shortcut)
{
    return strFormat("P8x%u/%s/OLTP", nodes, shortcut ? "on" : "off");
}

/**
 * §2.3: P8 on one and two chips under OLTP (150 transactions per CPU)
 * with the L2's partial-directory shortcut on and off.
 */
SweepSpec
sweepPdir()
{
    SweepSpec s("pdir");
    for (unsigned nodes : {1u, 2u}) {
        for (bool shortcut : {true, false}) {
            SweepPoint pt;
            pt.label = pdirLabel(nodes, shortcut);
            pt.config = configP8(nodes);
            pt.config.chip.l2.pdirShortcut = shortcut;
            pt.workload = WorkloadDecl{
                "OLTP", [] { return std::make_unique<OltpWorkload>(); },
                150 * 8 * nodes};
            s.addPoint(std::move(pt));
        }
    }
    return s;
}

/** Packets the network injected so far (drain() folds them in). */
double
netPackets(PiranhaSystem &sys)
{
    for (const StatGroup *g : sys.stats().children())
        if (g->name() == "network")
            return g->scalar("packets")->value();
    return 0;
}

/**
 * §2.5.3: share a line among all @p nodes, then time one writer's
 * upgrade under CMI fanout @p fanout, 40 times. Per invalidating
 * write, on average: the latency to settled (inval_ns), the chains
 * the home engine plans (its CmiPlan trace records) and the network
 * packets of the whole write, chains and acknowledgements included.
 */
JobResult
invalCost(unsigned nodes, unsigned fanout)
{
    CoherenceTracer tracer(std::size_t(1) << 16);
    SystemConfig cfg = configPn(1, nodes);
    cfg.chip.cmiFanout = fanout;
    cfg.chip.tracer = &tracer;
    PiranhaSystem sys(cfg);
    EventQueue &eq = sys.eventQueue();

    Addr a = 0x7000000;
    auto sync_op = [&](unsigned node, MemOp op) {
        bool done = false;
        MemReq req;
        req.op = op;
        req.addr = a;
        req.size = 8;
        sys.chip(node).dl1(0).access(
            req, [&](const MemRsp &) { done = true; });
        while (!done && eq.step()) {
        }
    };
    auto settle = [&] { sys.drain(eq.curTick() + 100 * ticksPerUs); };

    double ns = 0, chains = 0, packets = 0;
    const int iters = 40;
    for (int i = 0; i < iters; ++i) {
        for (unsigned n = 0; n < nodes; ++n)
            sync_op(n, MemOp::Load);
        settle();
        tracer.clear();
        double packets0 = netPackets(sys);
        Tick start = eq.curTick();
        // Writer at the last node invalidates every other sharer and
        // completes when all CMI acks arrive (we settle to capture
        // the full transaction, not just the eager grant).
        sync_op(nodes - 1, MemOp::Store);
        settle();
        ns += double(eq.curTick() - start) / ticksPerNs;
        packets += netPackets(sys) - packets0;
        for (const TraceEvent &e : tracer.events())
            if (e.kind == TraceKind::CmiPlan)
                chains += e.aux;
    }
    JobResult jr;
    jr.stats["inval_ns"] = ns / iters;
    jr.stats["chains"] = chains / iters;
    jr.stats["packets"] = packets / iters;
    return jr;
}

constexpr unsigned kCmiFanouts[] = {1, 2, 4, 16};

std::string
cmiLabel(unsigned nodes, unsigned fanout)
{
    return strFormat("%unode/fanout%u", nodes, fanout);
}

/**
 * §2.5.3: one custom point per (nodes, fanout) pair, each driving the
 * L1 ports of its own system directly, as litmus runs do. Fanout 1
 * is a single serial chain; a large fanout degenerates to one message
 * per sharer (the conventional scheme the paper compares against).
 */
SweepSpec
sweepCmi()
{
    SweepSpec s("cmi");
    for (unsigned nodes : {4u, 5u}) {
        for (unsigned fanout : kCmiFanouts) {
            SweepPoint pt;
            pt.label = cmiLabel(nodes, fanout);
            pt.custom = [nodes, fanout](const AbortCheck &) {
                return invalCost(nodes, fanout);
            };
            s.addPoint(std::move(pt));
        }
    }
    return s;
}

/**
 * Every built-in litmus program x seeds 1..n, each as a custom point
 * running the program with the coherence checker attached. A job
 * fails when the run does not complete, hits its forbidden outcome,
 * or the checker reports a violation.
 */
SweepSpec
sweepLitmus(unsigned seeds)
{
    SweepSpec s("litmus");
    for (const LitmusProgram &prog : builtinLitmusPrograms()) {
        for (unsigned seed = 1; seed <= seeds; ++seed) {
            SweepPoint pt;
            pt.label = prog.name + "/s" + std::to_string(seed);
            const LitmusProgram *pp = &prog; // static registry
            pt.custom = [pp, seed](const AbortCheck &) {
                LitmusRunOptions opt;
                opt.seed = seed;
                LitmusResult res = runLitmus(*pp, opt);
                JobResult jr;
                if (!res.ok())
                    jr.status = JobStatus::Failed;
                if (!res.completed)
                    jr.error = "run did not complete";
                else if (res.forbiddenHit)
                    jr.error = "forbidden outcome: " + pp->forbiddenDesc;
                else if (!res.report.ok())
                    jr.error = res.report.violations.empty()
                                   ? "trace truncated"
                                   : res.report.violations.front().axiom +
                                         ": " +
                                         res.report.violations.front()
                                             .detail;
                jr.stats["completed"] = res.completed ? 1 : 0;
                jr.stats["forbidden_hit"] = res.forbiddenHit ? 1 : 0;
                jr.stats["violations"] =
                    static_cast<double>(res.report.violations.size());
                jr.stats["trace_events"] =
                    static_cast<double>(res.trace.size());
                return jr;
            };
            s.addPoint(std::move(pt));
        }
    }
    return s;
}

/**
 * Stat @p key of job @p label. Throws unless that job completed, so a
 * figure is never rendered from a failed or missing run.
 */
double
jobStat(const SweepReport &r, const std::string &label, const char *key)
{
    const JobResult *j = r.job(label);
    if (!j || j->status != JobStatus::Ok || !j->stats.count(key))
        throw std::runtime_error("no completed job \"" + label + "\"");
    return j->stats.at(key);
}

/** Sum of scalar @p key over the L2 banks (the nodeN.l2bK groups) of
 *  stat tree @p group. */
double
l2BankSum(const JsonValue &group, const char *key)
{
    const JsonValue *scalars = group.find("scalars");
    double sum = 0;
    if (scalars && scalars->find(key) &&
        group.at("name").asString().find(".l2b") != std::string::npos)
        sum = scalars->at(key).asNumber();
    if (const JsonValue *children = group.find("children"))
        for (std::size_t i = 0; i < children->size(); ++i)
            sum += l2BankSum(children->at(i), key);
    return sum;
}

double
execTime(const SweepReport &r, const std::string &label)
{
    return jobStat(r, label, "exec_time_ps");
}

std::string
pct(double frac)
{
    return TextTable::fmt(100 * frac, 1) + "%";
}

/** Where a job's L1 misses were served, as shares (Fig. 6b). */
struct MissShares
{
    double l2 = 0, fwd = 0, mem = 0, remote = 0;
};

MissShares
missShares(const SweepReport &r, const std::string &label)
{
    double l2 = jobStat(r, label, "miss_l2_hit");
    double fwd = jobStat(r, label, "miss_l2_fwd");
    double remote = jobStat(r, label, "miss_mem_remote") +
                    jobStat(r, label, "miss_remote_dirty");
    double mem = jobStat(r, label, "miss_mem_local") + remote;
    double tot = l2 + fwd + mem;
    return {l2 / tot, fwd / tot, mem / tot, remote / tot};
}

/** Execution time of @p cfgs under @p wl normalized to OOO's, split
 *  into CPU busy and stall time (Figs. 5 and 8). */
void
printBreakdown(const SweepReport &r, const std::string &wl,
               std::initializer_list<const char *> cfgs)
{
    double ooo = execTime(r, "OOO/" + wl);
    TextTable t({"Config", "NormTime", "CPU busy", "L2 hit stall",
                 "L2 miss stall", "Other/idle"});
    for (const char *cfg : cfgs) {
        std::string label = cfg + ("/" + wl);
        t.addRow({cfg, TextTable::fmt(execTime(r, label) / ooo, 2),
                  pct(jobStat(r, label, "busy_frac")),
                  pct(jobStat(r, label, "l2_hit_stall_frac")),
                  pct(jobStat(r, label, "l2_miss_stall_frac")),
                  pct(jobStat(r, label, "idle_frac"))});
    }
    t.print(std::cout);
}

void
renderFig5(const SweepReport &r)
{
    struct Panel
    {
        const char *wl;
        double paper[4]; //!< P1, INO, OOO, P8 normalized to OOO
        double paperP8Speedup;
    };
    const Panel panels[] = {{"OLTP", {2.33, 1.45, 1.00, 0.35}, 2.9},
                            {"DSS", {4.55, 2.33, 1.00, 0.44}, 2.3}};
    const auto cfgs = {"P1", "INO", "OOO", "P8"};
    std::cout << "\n=== Figure 5: single-chip Piranha vs 1GHz OOO ===\n";
    for (const Panel &p : panels) {
        std::string wl = p.wl;
        std::cout << "\n-- " << wl << " --\n";
        printBreakdown(r, wl, cfgs);
        for (const char *cfg : cfgs) {
            MissShares m = missShares(r, cfg + ("/" + wl));
            std::printf("  %-4s L1-miss service: L2 %.0f%%  fwd %.0f%%  "
                        "mem %.0f%% (remote %.0f%%)\n",
                        cfg, 100 * m.l2, 100 * m.fwd, 100 * m.mem,
                        100 * m.remote);
        }
        std::printf("paper NormTime: P1=%.2f  INO=%.2f  OOO=%.2f  "
                    "P8=%.2f\n",
                    p.paper[0], p.paper[1], p.paper[2], p.paper[3]);
        std::printf("P8 vs OOO speedup: %.2fx (paper: %.1fx)\n",
                    execTime(r, "OOO/" + wl) / execTime(r, "P8/" + wl),
                    p.paperP8Speedup);
    }
}

void
renderFig6a(const SweepReport &r)
{
    std::cout << "\n=== Figure 6(a): OLTP speedup vs on-chip CPUs ===\n\n";
    double p1 = execTime(r, "P1/OLTP");
    TextTable t({"CPUs", "Speedup vs P1", "OOO reference"});
    for (unsigned n : {1u, 2u, 4u, 8u})
        t.addRow({strFormat("%u", n),
                  TextTable::fmt(
                      p1 / execTime(r, strFormat("P%u/OLTP", n)), 2),
                  n == 1 ? TextTable::fmt(p1 / execTime(r, "OOO/OLTP"), 2)
                         : ""});
    t.print(std::cout);
    std::printf("P8 speedup over P1: %.2fx (paper: ~7x)\n",
                p1 / execTime(r, "P8/OLTP"));
}

void
renderFig6b(const SweepReport &r)
{
    std::cout << "\n=== Figure 6(b): L1-miss service breakdown (OLTP) "
                 "===\n\n";
    TextTable t({"Config", "L2 Hit", "L2 Fwd", "L2 Miss (mem)"});
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        MissShares m = missShares(r, strFormat("P%u/OLTP", n));
        t.addRow({strFormat("P%u", n), pct(m.l2), pct(m.fwd),
                  pct(m.mem)});
    }
    t.print(std::cout);
    std::cout << "paper: P1 ~90% L2 hit; P8 <40% L2 hit with the L2-fwd "
                 "share growing;\nmemory share under 20% past one CPU "
                 "(non-inclusive victim hierarchy).\n";
}

void
renderFig7(const SweepReport &r)
{
    auto thr = [&r](const char *cfg, unsigned chips) {
        return jobStat(r, strFormat("%s/%uchip", cfg, chips),
                       "throughput");
    };
    std::cout << "\n=== Figure 7: multi-chip OLTP scaling ===\n\n";
    TextTable t({"Chips", "Piranha(P4) speedup", "OOO speedup",
                 "P4/OOO perf"});
    for (unsigned chips = 1; chips <= 4; ++chips)
        t.addRow({strFormat("%u", chips),
                  TextTable::fmt(thr("P4", chips) / thr("P4", 1), 2),
                  TextTable::fmt(thr("OOO", chips) / thr("OOO", 1), 2),
                  TextTable::fmt(thr("P4", chips) / thr("OOO", chips),
                                 2)});
    t.print(std::cout);
    std::printf("at 4 chips: Piranha %.2fx vs OOO %.2fx (paper: 3.0 vs "
                "2.6)\nsingle-chip P4 vs OOO: %.2fx (paper: ~1.5x)\n",
                thr("P4", 4) / thr("P4", 1),
                thr("OOO", 4) / thr("OOO", 1),
                thr("P4", 1) / thr("OOO", 1));
}

void
renderFig8(const SweepReport &r)
{
    struct Panel
    {
        const char *wl;
        double paperP8, paperP8F; //!< speedups over OOO
    };
    const Panel panels[] = {{"OLTP", 2.9, 5.0}, {"DSS", 2.3, 5.3}};
    std::cout << "\n=== Figure 8: full-custom Piranha (P8F) ===\n";
    for (const Panel &p : panels) {
        std::string wl = p.wl;
        std::cout << "\n-- " << wl << " --\n";
        printBreakdown(r, wl, {"OOO", "P8", "P8F"});
        double ooo = execTime(r, "OOO/" + wl);
        std::printf("speedup vs OOO: P8 %.2fx, P8F %.2fx (paper: P8 "
                    "~%.1fx, P8F ~%.1fx)\n",
                    ooo / execTime(r, "P8/" + wl),
                    ooo / execTime(r, "P8F/" + wl), p.paperP8,
                    p.paperP8F);
    }
}

void
renderSens(const SweepReport &r)
{
    std::cout << "\n=== Sensitivity study (paper §4 text) ===\n\n";
    std::printf("TPC-C-like: P8 vs OOO %.2fx (paper: >3x)\n",
                execTime(r, "OOO/OLTP-C") / execTime(r, "P8/OLTP-C"));
    double pess = execTime(r, "P8-pess/OLTP");
    std::printf("pessimistic P8 (400MHz, 32KB 1-way L1): +%.0f%% time "
                "(paper: +29%%), still %.2fx over OOO (paper: 2.25x)\n",
                100 * (pess / execTime(r, "P8/OLTP") - 1),
                execTime(r, "OOO/OLTP") / pess);
}

void
renderOpenPage(const SweepReport &r)
{
    std::cout << "\n=== §2.4: RDRAM open-page policy ===\n\n";
    TextTable t({"keep-open (ns)", "OLTP page hits", "DSS page hits"});
    for (double keep : kKeepOpenNs) {
        std::string cfg = keepOpenConfig(keep);
        t.addRow({TextTable::fmt(keep, 0),
                  pct(jobStat(r, cfg + "/OLTP", "rdram_page_hit_rate")),
                  pct(jobStat(r, cfg + "/DSS", "rdram_page_hit_rate"))});
    }
    t.print(std::cout);
    std::cout << "\npaper: ~1us keep-open window -> >50% page hit "
                 "rate on OLTP\n(their Oracle miss stream has "
                 "block-level clustering; our synthetic tail\nis "
                 "partly random, so OLTP hits are lower while the "
                 "sequential DSS scan\nshows the policy's full "
                 "effect).\n";
}

void
renderPdir(const SweepReport &r)
{
    std::cout << "\n=== Ablation: L2 partial directory info (§2.3) "
                 "===\n\n";
    TextTable t({"Config", "pdir shortcut", "exec time (ms)",
                 "engine trips", "shortcut grants"});
    for (unsigned nodes : {1u, 2u}) {
        for (bool shortcut : {true, false}) {
            std::string label = pdirLabel(nodes, shortcut);
            double ms = 1e-9 * execTime(r, label); // the job completed
            const JsonValue &tree = r.job(label)->statTree;
            if (tree.isNull())
                throw std::runtime_error("pdir reads the stat tree, "
                                         "which --no-stat-tree drops");
            t.addRow({strFormat("P8x%u/OLTP", nodes),
                      shortcut ? "on" : "off", TextTable::fmt(ms, 3),
                      TextTable::fmt(l2BankSum(tree, "engine_trips"), 0),
                      TextTable::fmt(l2BankSum(tree, "pdir_shortcut"),
                                     0)});
        }
    }
    t.print(std::cout);
    std::cout << "\npaper: the partial info avoids protocol-engine "
                 "communication for the\nmajority of local requests "
                 "and often avoids the directory fetch entirely.\n";
}

void
renderCmi(const SweepReport &r)
{
    std::cout << "\n=== §2.5.3: cruise-missile invalidations ===\n\n";
    TextTable t({"Nodes", "CMI fanout", "inject msgs", "net pkts/write",
                 "inval+settle ns"});
    for (unsigned nodes : {4u, 5u}) {
        for (unsigned fanout : kCmiFanouts) {
            std::string label = cmiLabel(nodes, fanout);
            t.addRow({strFormat("%u", nodes), strFormat("%u", fanout),
                      TextTable::fmt(jobStat(r, label, "chains"), 0),
                      TextTable::fmt(jobStat(r, label, "packets"), 0),
                      TextTable::fmt(jobStat(r, label, "inval_ns"), 0)});
        }
    }
    t.print(std::cout);
    std::cout
        << "\npaper: CMI bounds injected invalidations to a handful\n"
           "(node buffering independent of system size) while a\n"
           "serial chain (fanout 1) pays higher latency and the\n"
           "one-message-per-sharer scheme injects the most traffic.\n";
}

struct SweepEntry
{
    const char *name;
    const char *desc;
    SweepSpec (*make)();
    /** Prints the paper-vs-measured rows from a report whose jobs all
     *  completed; null for sweeps without a paper counterpart. */
    void (*render)(const SweepReport &);
};

const SweepEntry kSweeps[] = {
    {"fig5", "single-chip configs x {OLTP, DSS} (8 points)", sweepFig5,
     renderFig5},
    {"fig6a", "P1..P8 + OOO under OLTP (5 points)", sweepFig6a,
     renderFig6a},
    {"fig6b", "L1-miss service of P1..P8 under OLTP (4 points)",
     sweepFig6b, renderFig6b},
    {"fig7", "P4 and OOO at 1-4 chips under OLTP (8 points)", sweepFig7,
     renderFig7},
    {"fig8", "full-custom potential x {OLTP, DSS} (6 points)",
     sweepFig8, renderFig8},
    {"sens", "sensitivity configs x {TPC-B, TPC-C} (6 points)",
     sweepSens, renderSens},
    {"openpage", "§2.4 RDRAM keep-open windows x {OLTP, DSS} "
                 "(14 points)",
     sweepOpenPage, renderOpenPage},
    {"pdir", "§2.3 L2 partial-directory shortcut, 1-2 chips (4 points)",
     sweepPdir, renderPdir},
    {"cmi", "§2.5.3 CMI fanout at 4 and 5 nodes (8 custom points)",
     sweepCmi, renderCmi},
    {"quick", "reduced-work 8-point grid for smoke checks", sweepQuick,
     nullptr},
};

int
usage()
{
    std::cerr
        << "usage: sweep_main <sweep> [options]\n"
        << "       sweep_main --litmus [--seeds N] [options]\n"
        << "       sweep_main --list\n\n"
        << "options:\n"
        << "  --threads N     worker threads (default: all cores)\n"
        << "  --serial        same as --threads 1\n"
        << "  --json FILE     write the JSON report to FILE\n"
        << "  --timeout SEC   per-job host wall-clock timeout\n"
        << "  --no-stat-tree  omit full StatGroup snapshots\n"
        << "  --verify        serial vs parallel bit-identity check\n"
        << "  --engine E      intra-run engine: serial|parallel\n"
        << "  --shards N      parallel-engine workers per job "
           "(0 = one per chip)\n"
        << "                  (litmus jobs run the serial engine: "
           "neither\n"
        << "                  flag goes with --litmus)\n"
        << "  --no-fastpath   force the evented L1-hit slow path\n"
        << "  --seeds N       seeds per litmus program (default 8)\n"
        << "  --exec TIER     execution tier: thread|process\n"
        << "  --journal DIR   job journal for --resume\n"
        << "  --resume        skip journal-completed jobs "
           "(requires --journal)\n"
        << "process tier only (with --exec process):\n"
        << "  --grace SEC     SIGTERM/SIGKILL grace past the timeout "
           "(default 1)\n"
        << "  --retries N     max attempts per job whose worker dies "
           "(default 1)\n"
        << "  --chaos K@I     inject worker fault K at job index I on "
           "its first\n"
        << "                  attempt (K: segv|kill|exit|hang|garbage; "
           "repeatable,\n"
        << "                  comma-separated)\n"
        << "  --chaos-die-after N   supervisor _exit(42)s after its\n"
        << "                  N-th recorded result (resume testing)\n";
    return 2;
}

/** Parse "--chaos kind@index[,kind@index...]" into @p chaos. */
bool
parseChaos(const std::string &arg, ProcessChaos &chaos)
{
    std::size_t pos = 0;
    while (pos < arg.size()) {
        std::size_t comma = arg.find(',', pos);
        std::string item = arg.substr(
            pos, comma == std::string::npos ? comma : comma - pos);
        std::size_t at = item.find('@');
        if (at == std::string::npos)
            return false;
        std::string kind = item.substr(0, at);
        WorkerFault f;
        if (kind == "segv")
            f = WorkerFault::Segv;
        else if (kind == "kill")
            f = WorkerFault::Kill;
        else if (kind == "exit")
            f = WorkerFault::ExitNonZero;
        else if (kind == "hang")
            f = WorkerFault::Hang;
        else if (kind == "garbage")
            f = WorkerFault::Garbage;
        else
            return false;
        std::size_t idx;
        if (!parseNumber(std::string_view(item).substr(at + 1), idx))
            return false;
        chaos.byIndex[idx] = f;
        pos = comma == std::string::npos ? arg.size() : comma + 1;
    }
    return !chaos.byIndex.empty();
}

/**
 * Per-job comparison key: flat stats + full stat tree, no timings.
 * Cross-engine comparisons drop events_executed (the fast path's
 * inline/evented split shifts at epoch boundaries; events_equivalent
 * stays in and must match — see RunResult::eventsEquivalent).
 */
std::string
comparableKey(const JobResult &j, bool cross_engine)
{
    std::string key = j.label;
    key += '|';
    key += jobStatusName(j.status);
    for (const auto &[k, v] : j.stats) {
        if (cross_engine && k == "events_executed")
            continue;
        key += '|';
        key += k;
        key += '=';
        key += JsonValue(v).dump(0);
    }
    key += '|';
    key += j.statTree.dump(0);
    return key;
}

/**
 * With --engine serial (default) this verifies the host-thread pool:
 * the same spec on 1 thread vs N, bit-identical. With --engine
 * parallel the reference pass ALSO drops to the serial intra-run
 * engine (run to quiescence), so the gate proves the sharded engine
 * reproduces the serial engine's simulation exactly. A non-empty
 * @p json_path receives the second pass's report.
 */
int
runVerify(const SweepSpec &spec, SweepOptions opts,
          const std::string &json_path)
{
    const bool cross_engine = opts.engine == EngineKind::Parallel;
    const bool cross_tier = opts.exec == ExecTier::Process;
    SweepOptions serial = opts;
    serial.threads = 1;
    serial.progress = nullptr;
    // The reference pass always runs in-process on the thread tier;
    // with --exec process the gate therefore proves the forked
    // workers' pipe round trip reproduces in-process results exactly.
    serial.exec = ExecTier::Thread;
    if (cross_engine) {
        serial.engine = EngineKind::Serial;
        serial.drainStop = true; // the parallel engine always drains
    }
    std::cout << (cross_engine
                      ? "verify: serial-engine reference pass..."
                      : "verify: serial pass...")
              << std::endl;
    SweepReport a = SweepRunner(serial).run(spec);
    std::cout << "verify: parallel pass ("
              << SweepRunner(opts).effectiveThreads(a.jobs.size())
              << " threads"
              << (cross_engine ? ", sharded engine" : "")
              << (cross_tier ? ", process tier" : "") << ")..."
              << std::endl;
    SweepOptions par = opts;
    par.progress = nullptr;
    SweepReport b = SweepRunner(par).run(spec);

    bool identical = a.jobs.size() == b.jobs.size();
    for (size_t i = 0; identical && i < a.jobs.size(); ++i) {
        if (comparableKey(a.jobs[i], cross_engine) !=
            comparableKey(b.jobs[i], cross_engine)) {
            std::cout << "MISMATCH at job " << a.jobs[i].label << "\n";
            identical = false;
        }
    }
    double speedup =
        b.hostSeconds > 0 ? a.hostSeconds / b.hostSeconds : 0;
    std::printf("verify: %zu jobs, serial %.2fs, parallel %.2fs "
                "(%.2fx), results %s\n",
                a.jobs.size(), a.hostSeconds, b.hostSeconds, speedup,
                identical ? "bit-identical" : "DIFFER");
    if (!json_path.empty()) {
        if (!b.writeJsonFile(json_path))
            return 1;
        std::cout << "report written to " << json_path << "\n";
    }
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string sweep_name;
    BenchArgs args;
    SweepOptions &opts = args.opts;
    opts.progress = &std::cerr;
    bool verify = false, no_fastpath = false, engine_set = false;
    unsigned litmus_seeds = 8;

    int rc = parseBenchArgs(argc, argv, args, usage, [&](int &i) {
        std::string arg = argv[i];
        bool has_value = i + 1 < argc;
        if (arg == "--list") {
            for (const SweepEntry &e : kSweeps)
                std::printf("%-8s %s\n", e.name, e.desc);
            std::printf("%-8s %s\n", "litmus",
                        "built-in litmus programs x seeds under the "
                        "coherence checker");
            return 0;
        } else if (arg == "--litmus") {
            sweep_name = "litmus";
        } else if (arg == "--seeds" && has_value) {
            if (!parseNumber(argv[++i], litmus_seeds))
                return usage();
        } else if (arg == "--no-stat-tree") {
            opts.captureStatTree = false;
        } else if (arg == "--verify") {
            verify = true;
        } else if (arg == "--engine" && has_value) {
            engine_set = true;
            std::string e = argv[++i];
            if (e == "parallel")
                opts.engine = EngineKind::Parallel;
            else if (e == "serial")
                opts.engine = EngineKind::Serial;
            else
                return usage();
        } else if (arg == "--shards" && has_value) {
            engine_set = true;
            if (!parseNumber(argv[++i], opts.engineShards))
                return usage();
        } else if (arg == "--chaos" && has_value) {
            args.processOnly = true;
            if (!parseChaos(argv[++i], opts.chaos))
                return usage();
        } else if (arg == "--chaos-die-after" && has_value) {
            args.processOnly = true;
            if (!parseNumber(argv[++i], opts.chaos.supervisorExitAfter))
                return usage();
        } else if (arg == "--no-fastpath") {
            no_fastpath = true;
        } else if (!arg.empty() && arg[0] != '-' && sweep_name.empty()) {
            sweep_name = arg;
        } else {
            return usage();
        }
        return kRunBench;
    });
    if (rc != kRunBench)
        return rc;
    if (sweep_name.empty() || (sweep_name == "litmus" && engine_set))
        return usage();
    if (!opts.journalDir.empty() && verify) {
        // The verify double-run would interleave two sweeps' records
        // in one journal, making any later --resume ambiguous.
        std::cerr << "--journal cannot be combined with --verify\n";
        return 2;
    }

    SweepSpec spec;
    const SweepEntry *entry = nullptr;
    if (sweep_name == "litmus") {
        if (litmus_seeds == 0)
            return usage();
        spec = sweepLitmus(litmus_seeds);
    } else {
        for (const SweepEntry &e : kSweeps)
            if (sweep_name == e.name)
                entry = &e;
        if (!entry) {
            std::cerr << "unknown sweep \"" << sweep_name
                      << "\" (try --list)\n";
            return 2;
        }
        spec = entry->make();
    }
    if (no_fastpath) {
        // Every job through the evented L1-hit path; with --verify
        // this doubles as a fastpath-off determinism check (results
        // must match a fastpath-on run bit-for-bit except
        // events_executed). Litmus points drive no core, so the
        // setting does not matter there.
        SweepSpec slow(spec.name);
        for (SweepPoint &pt : spec.expand()) {
            pt.config.core.fastPath = false;
            slow.addPoint(std::move(pt));
        }
        spec = std::move(slow);
    }
    if (verify)
        return runVerify(spec, opts, args.jsonPath);

    drainOnSigint(opts);
    SweepReport report = SweepRunner(opts).run(spec);

    // Cells come from the flat stats, which the process tier and
    // --resume restore; "-" where a job has no such stat.
    auto cell = [](const JobResult &j, const char *key, double scale,
                   int precision) -> std::string {
        auto it = j.stats.find(key);
        return j.status == JobStatus::Ok && it != j.stats.end()
                   ? TextTable::fmt(scale * it->second, precision)
                   : "-";
    };
    TextTable t({"Job", "Status", "ExecTime(ms)", "Busy%", "Host(s)"});
    for (const JobResult &j : report.jobs)
        t.addRow({j.label, jobStatusName(j.status),
                  cell(j, "exec_time_ps", 1e-9, 3),
                  cell(j, "busy_frac", 100, 1),
                  TextTable::fmt(j.hostSeconds, 2)});
    t.print(std::cout);
    std::printf("\n%zu jobs on %u threads in %.2fs host time%s\n",
                report.jobs.size(), report.threads, report.hostSeconds,
                report.interrupted ? " (interrupted)" : "");

    bool rendered = true;
    if (entry && entry->render &&
        report.count(JobStatus::Ok) == report.jobs.size()) {
        try {
            entry->render(report);
        } catch (const std::exception &e) {
            std::cerr << "cannot render " << entry->name << ": "
                      << e.what() << "\n";
            rendered = false;
        }
    }

    if (!args.jsonPath.empty()) {
        if (!report.writeJsonFile(args.jsonPath))
            return 1;
        std::cout << "report written to " << args.jsonPath << "\n";
    }
    if (report.interrupted)
        return 130;
    unsigned bad = report.count(JobStatus::Failed) +
                   report.count(JobStatus::TimedOut);
    return bad || !rendered ? 1 : 0;
}
