#!/usr/bin/env bash
# Tier-1 verification, as CI runs it: check that there is one build
# (no code path behind a PIRANHA_ macro or a CMake option), that only
# PiranhaSystem wires systems and that every src/, tests/, bench/ and
# examples/ path the docs cite exists, configure with warnings promoted
# to errors on every target, build everything, run the full test suite.
#
# Usage:
#   scripts/ci.sh [build-dir]         tier-1 build + tests
#   scripts/ci.sh asan [build-dir]    same under ASan+UBSan, plus the
#                                     litmus sweep (memory errors in
#                                     the protocol/tracer paths)
#   scripts/ci.sh perf [build-dir]    Release+LTO build and tests
#                                     (gating), the benchmark's
#                                     correctness gate (perfbench/run.py
#                                     at seed 1 on every workload: each
#                                     stat-tree digest must equal the one
#                                     pinned in perfbench/ledger.json;
#                                     timings are not gated), the same
#                                     digest gate at validation seed 101
#                                     against the digests pinned below,
#                                     a footprint gate (p8_dss at seed
#                                     101 may peak at 16 MB resident:
#                                     a read-only scan takes no host
#                                     memory), p4x8_oltp at seeds 8 and
#                                     64 (once known failures; each must
#                                     finish with "correct":true), then
#                                     the fig5 sweep on one thread
#                                     of the same build as the host-
#                                     profiler artifact
#                                     (PROFILE_breakdown.json): a job of
#                                     0.2 s or more without zone shares
#                                     fails
#   scripts/ci.sh faults [build-dir]  build + tests, then two pinned-
#                                     seed fault-injection campaigns
#                                     (DESIGN.md §9), one chip and two
#                                     chips, whose outcome histograms
#                                     and fired-fault records must
#                                     match exactly; writes
#                                     CAMPAIGN_ci.json and
#                                     CAMPAIGN_ci_2chip.json as
#                                     artifacts
#   scripts/ci.sh tsan [build-dir]    ThreadSanitizer build, then the
#                                     suites that drive the parallel
#                                     engine's shard workers (DESIGN.md
#                                     §13): identity + mutation tests,
#                                     the parallel litmus/random-
#                                     coherence halves, and a sharded
#                                     sweep --verify
#   scripts/ci.sh crashsafe [build-dir]
#                                     build + tests, then the crash-safe
#                                     campaign gate (DESIGN.md §14): a
#                                     process-tier quick sweep with
#                                     injected worker crashes/hangs and
#                                     a journal, the supervisor killed
#                                     mid-sweep, then --resume — the
#                                     final aggregate must be
#                                     bit-identical (stats + stat
#                                     trees) to a clean thread-tier run
set -euo pipefail

MODE=tier1
case "${1:-}" in
  asan|perf|faults|tsan|crashsafe)
    MODE=$1
    shift
    ;;
esac

DEFAULT_DIR=build-ci
[[ "$MODE" == "asan" ]] && DEFAULT_DIR=build-asan
[[ "$MODE" == "perf" ]] && DEFAULT_DIR=build-perf
[[ "$MODE" == "faults" ]] && DEFAULT_DIR=build-faults
[[ "$MODE" == "tsan" ]] && DEFAULT_DIR=build-tsan
[[ "$MODE" == "crashsafe" ]] && DEFAULT_DIR=build-crashsafe
BUILD_DIR="${1:-$DEFAULT_DIR}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

# One build: no source selects a code path with a PIRANHA_ macro
# (include guards use #ifndef and do not match), and CMake offers
# only the warning, LTO and sanitizer switches.
macros="$(cd "$(dirname "$0")/.." &&
    grep -rnE '^[[:space:]]*#[[:space:]]*(if|ifdef|elif)\b.*PIRANHA_' \
        src tests bench examples || [[ $? -eq 1 ]])"
if [[ -n "$macros" ]]; then
    echo "FAIL: code paths selected by a PIRANHA_ macro:" >&2
    echo "$macros" >&2
    exit 1
fi
options="$(cd "$(dirname "$0")/.." &&
    grep -rnE --include=CMakeLists.txt 'option\([[:space:]]*PIRANHA_' \
        CMakeLists.txt src tests bench examples perfbench |
    grep -vE 'option\([[:space:]]*PIRANHA_(WERROR|LTO|SANITIZE|TSAN)[[:space:]]' ||
    true)"
if [[ -n "$options" ]]; then
    echo "FAIL: CMake options beyond WERROR, LTO, SANITIZE and TSAN:" >&2
    echo "$options" >&2
    exit 1
fi

# Chips, network, event queues and shards are wired only by the
# network, the sharded engine and PiranhaSystem (DESIGN.md §13).
# Anything else that needs a system builds a PiranhaSystem, so the
# wiring cannot be copied again.
wiring="$(cd "$(dirname "$0")/.." &&
    grep -rlE 'NetFabric|ShardPlan|ParallelEngine' \
        src tests bench examples || [[ $? -eq 1 ]])"
wiring="$(grep -vE \
    '^src/noc/|^src/sim/parallel_engine\.|^src/system/sim_system\.' \
    <<<"$wiring" || true)"
if [[ -n "$wiring" ]]; then
    echo "FAIL: these files name NetFabric, ShardPlan or" \
         "ParallelEngine; build the system with PiranhaSystem" >&2
    echo "$wiring" >&2
    exit 1
fi

# Every src/, tests/, bench/ and examples/ path that DESIGN.md,
# README.md or EXPERIMENTS.md cites (globs like src/mem/ecc.* included)
# must match a file or directory, or name the binary built from
# <path>.cc (bench/sweep_main). Only whole path tokens count, so
# perfbench/run.py and build/bench/sweep_main are not read as bench/
# paths.
stale="$(cd "$(dirname "$0")/.." && export LC_ALL=C &&
    grep -ohE '(^|[^A-Za-z0-9_./-])(src|tests|bench|examples)/[A-Za-z0-9_./*-]+' \
        DESIGN.md README.md EXPERIMENTS.md |
    sed -E 's/^[^a-z]//; s/\.+$//' | sort -u |
    while read -r p; do
        compgen -G "$p" > /dev/null || compgen -G "$p.cc" > /dev/null ||
            echo "$p"
    done)"
if [[ -n "$stale" ]]; then
    echo "FAIL: the docs cite paths that match no file:" >&2
    echo "$stale" >&2
    exit 1
fi

BUILD_TYPE=RelWithDebInfo
EXTRA=()
[[ "$MODE" == "asan" ]] && EXTRA+=(-DPIRANHA_SANITIZE=ON)
[[ "$MODE" == "tsan" ]] && EXTRA+=(-DPIRANHA_TSAN=ON)
if [[ "$MODE" == "perf" ]]; then
    BUILD_TYPE=Release
    EXTRA+=(-DPIRANHA_LTO=ON)
fi

cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." \
    -DCMAKE_BUILD_TYPE="$BUILD_TYPE" \
    -DPIRANHA_WERROR=ON \
    "${EXTRA[@]+"${EXTRA[@]}"}"
cmake --build "$BUILD_DIR" -j "$JOBS"

if [[ "$MODE" == "tsan" ]]; then
    # TSan is ~10x slower than native, so run the suites that actually
    # create shard worker threads instead of the whole tier-1 set. Any
    # data race aborts (halt_on_error): a race in the parallel engine
    # is a determinism bug even when this run's output looks right.
    export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
    "$BUILD_DIR"/tests/parallel_identity_test
    "$BUILD_DIR"/tests/litmus/litmus_suite_test \
        --gtest_filter='*_parallel*'
    "$BUILD_DIR"/tests/coherence_random_test \
        --gtest_filter='*_parallel*'
    # Shard workers under the sweep's own host-thread pool, with the
    # serial-vs-parallel verify gate on.
    "$BUILD_DIR"/bench/sweep_main quick --verify --threads 2 \
        --engine parallel --shards 2
    echo "tsan suites passed"
    exit 0
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

if [[ "$MODE" == "asan" ]]; then
    # Drive the protocol+tracer under the sanitizers from outside the
    # gtest harness too: every built-in litmus across a few seeds.
    "$BUILD_DIR"/bench/sweep_main --litmus --seeds 4 --threads 2
fi

if [[ "$MODE" == "faults" ]]; then
    # Deterministic campaigns with pinned seeds: the planner is a pure
    # function of (config, seed), so the outcome histogram — and the
    # per-run records — must reproduce exactly on any host at any
    # thread count. Drift means injection, recovery, or classification
    # changed behaviour and the expectations here (and in
    # tests/fault_test.cc) need a deliberate update.
    #
    # One chip, the ECC/parity/ICS/memory kinds:
    "$BUILD_DIR"/bench/campaign_main --injections 12 --seed 1 --count 2 \
        --work 1024 \
        --kinds mem_data_flip,mem_data_double_flip,mem_check_flip,l1_data_flip,l2_data_flip,ics_drop,ics_delay,mem_stall \
        --json CAMPAIGN_ci.json
    # Two chips, every fault kind: the node ids the components record,
    # the directory bits and the inter-chip transport.
    "$BUILD_DIR"/bench/campaign_main --injections 12 --seed 1 --count 2 \
        --work 1024 --nodes 2 --json CAMPAIGN_ci_2chip.json
    # Digest: each run's seed, outcome and fired faults (kind, time,
    # node, site), so a change that moves which line or cache a fault
    # lands on fails even when every outcome holds.
    python3 - <<'PYEOF'
import hashlib, json, sys
pins = {
    "CAMPAIGN_ci.json": ({"corrected": 2, "detected": 1, "hang": 1,
                          "masked": 3, "recovered": 5},
                         "6149fc732fef9d6a"),
    "CAMPAIGN_ci_2chip.json": ({"corrected": 2, "detected": 3, "hang": 4,
                                "masked": 2, "recovered": 1},
                               "bafab9e6822a2e56"),
}
bad = False
for path, (expect, expect_digest) in pins.items():
    rep = json.load(open(path))
    got = rep["histogram"]
    records = [[r["seed"], r["outcome"],
                [[f["kind"], int(f["at_ps"]), f["node"], f["site"]]
                 for f in r.get("fired", [])]]
               for r in sorted(rep["runs"], key=lambda r: r["seed"])]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16]
    print(f"{path}: histogram {got}, fired-record digest {digest}")
    if got != expect:
        print(f"FAIL: {path}: expected histogram {expect}", file=sys.stderr)
        bad = True
    if digest != expect_digest:
        print(f"FAIL: {path}: expected fired-record digest {expect_digest}",
              file=sys.stderr)
        bad = True
    hangs = [r for r in rep["runs"] if r["outcome"] == "hang"]
    if not all("diagnostic dump" in r.get("watchdog_dump", "")
               for r in hangs):
        print(f"FAIL: {path}: hang outcome without a watchdog dump",
              file=sys.stderr)
        bad = True
    panics = [r for r in rep["runs"] if r["outcome"] == "detected" and
              r.get("detail", "").startswith("panic:")]
    if not all("diagnostic dump" in r.get("watchdog_dump", "")
               for r in panics):
        print(f"FAIL: {path}: panic-detected run without a diagnostic "
              f"dump", file=sys.stderr)
        bad = True
if bad:
    sys.exit(1)
print("campaign histograms and fired records match the pinned expectation")
PYEOF
fi

if [[ "$MODE" == "crashsafe" ]]; then
    # Process-tier identity gate first: forked workers' pipe round
    # trip must reproduce in-process results bit-for-bit.
    "$BUILD_DIR"/bench/sweep_main quick --verify --exec process \
        --threads 4

    # Clean thread-tier reference for the identity comparison below.
    "$BUILD_DIR"/bench/sweep_main quick --serial \
        --json CRASHSAFE_clean.json

    # The crash run: process tier, journaled, three seeded worker
    # faults (indices into the quick grid: 1 = P1/DSS segfaults,
    # 5 = P4/DSS exits nonzero, 6 = P8/OLTP hangs through SIGTERM),
    # retries on, and the supervisor kills itself right after its 5th
    # recorded result — the deterministic stand-in for kill -9.
    JDIR="$BUILD_DIR/crashsafe-journal"
    rm -rf "$JDIR"
    rc=0
    "$BUILD_DIR"/bench/sweep_main quick --exec process --threads 2 \
        --journal "$JDIR" --retries 2 --timeout 6 --grace 0.5 \
        --chaos segv@1,exit@5,hang@6 --chaos-die-after 5 || rc=$?
    if [[ "$rc" -ne 42 ]]; then
        echo "FAIL: expected the chaos supervisor exit (42), got $rc" >&2
        exit 1
    fi
    echo "supervisor killed mid-sweep as planned; resuming"

    # Resume from the journal (same chaos plan: any re-run faulted job
    # must crash once more and recover on its retry).
    "$BUILD_DIR"/bench/sweep_main quick --exec process --threads 2 \
        --journal "$JDIR" --resume --retries 2 --timeout 6 --grace 0.5 \
        --chaos segv@1,exit@5,hang@6 \
        --json CRASHSAFE_resumed.json

    # Gating: the resumed report is bit-identical to the clean run on
    # everything the experiment consumes (stats + stat trees), jobs
    # were actually recovered from the journal, and every injected
    # crash — including the hung worker the supervisor had to SIGKILL
    # — cost exactly one retry, never a result.
    python3 - <<'PYEOF'
import json, sys
clean = {j["label"]: j
         for j in json.load(open("CRASHSAFE_clean.json"))["jobs"]}
res = json.load(open("CRASHSAFE_resumed.json"))
resumed = {j["label"]: j for j in res["jobs"]}
if set(clean) != set(resumed):
    print(f"FAIL: job labels differ: {sorted(set(clean) ^ set(resumed))}",
          file=sys.stderr)
    sys.exit(1)
bad = 0
for label in sorted(clean):
    cj, rj = clean[label], resumed[label]
    if rj["status"] != "ok":
        print(f"FAIL: {label}: status {rj['status']} after resume",
              file=sys.stderr)
        bad += 1
    elif cj["stats"] != rj["stats"]:
        print(f"FAIL: {label}: resumed stats diverge from the clean run",
              file=sys.stderr)
        bad += 1
    elif cj.get("stat_tree") != rj.get("stat_tree"):
        print(f"FAIL: {label}: resumed stat tree diverges from the "
              f"clean run", file=sys.stderr)
        bad += 1
if res.get("jobs_resumed", 0) < 1:
    print("FAIL: no jobs were recovered from the journal",
          file=sys.stderr)
    bad += 1
for label in ("P1/DSS", "P4/DSS", "P8/OLTP"):
    if resumed[label].get("attempts", 1) != 2:
        print(f"FAIL: {label}: expected exactly one crash retry, "
              f"attempts = {resumed[label].get('attempts', 1)}",
              file=sys.stderr)
        bad += 1
if bad:
    sys.exit(1)
print(f"{len(clean)} jobs bit-identical after crash + resume "
      f"({res['jobs_resumed']} recovered from the journal)")
PYEOF
fi

if [[ "$MODE" == "perf" ]]; then
    # Gating: the benchmark's correctness checks. Every workload runs
    # once at the pinned seed, and perfbench exits non-zero when a stat
    # tree's digest differs from perfbench/ledger.json, so a change that
    # moves any simulated statistic fails here. Only correctness is
    # gated, never the timings it prints.
    CARGO_TARGET_DIR="$BUILD_DIR-bench" python3 \
        "$(dirname "$0")/../perfbench/run.py" \
        --workload all --seed 1 --seconds 1 --trace 0

    # Gating: the ledger's validation seed (101) too, one sample per
    # workload. The ledger pins no digest for it, so they are pinned
    # here; a behaviour-preserving change keeps all four.
    CARGO_TARGET_DIR="$BUILD_DIR-bench" python3 \
        "$(dirname "$0")/../perfbench/run.py" \
        --workload all --seed 101 --seconds 0.1 --trace 0 \
        > "$BUILD_DIR/perf-seed101.txt"
    python3 - "$BUILD_DIR/perf-seed101.txt" <<'PYEOF'
import json, re, sys
expect = {"p8_oltp": "5595710518f9bd4f", "p8_dss": "e8e172507ad62578",
          "p4x8_oltp": "298f2feef7a8aa3b", "fig7_sweep": "2aed31eb7ae9cd78"}
got = {}
workload = None
for line in open(sys.argv[1]):
    if line.startswith("# meta "):
        workload = json.loads(line[len("# meta "):])["workload"]
    m = re.match(r"stat digest ([0-9a-f]+)", line)
    if m:
        got.setdefault(workload, set()).add(m.group(1))
bad = [w for w, d in expect.items() if got.get(w) != {d}]
for w in bad:
    print(f"FAIL: {w} seed-101 digest {sorted(got.get(w, []))}, "
          f"expected {expect[w]}", file=sys.stderr)
if bad:
    sys.exit(1)
print("seed-101 digests match on all four workloads")
PYEOF

    # Gating: p8_dss's footprint. Its scan only reads memory, and a
    # read takes no host state (DESIGN.md §8), so the run peaks near
    # 9 MB; an index slot per line read took 33 MB in one sample. Only
    # p8_dss is gated: its peak does not vary run to run. The binary
    # runs directly, not under run.py, because Linux carries the
    # launcher's resident size into the child's ru_maxrss across exec:
    # under run.py the figure never reads below the Python
    # interpreter's own (17.5 MB on a pyenv 3.11).
    "$BUILD_DIR-bench/perfbench/perfbench" --workload p8_dss --seed 101 \
        --seconds 0.1 --trace 0 --out-dir "$BUILD_DIR" \
        --ledger "$(dirname "$0")/../perfbench/ledger.json" |
        tail -n 1 > "$BUILD_DIR/perf-dss-footprint.json"
    python3 - "$BUILD_DIR/perf-dss-footprint.json" <<'PYEOF'
import json, sys
mb = json.load(open(sys.argv[1]))["metrics"]["peak_rss_mb"]["value"]
if mb > 16.0:
    sys.exit(f"FAIL: p8_dss peak_rss_mb {mb:.1f} MB, limit 16 MB")
print(f"p8_dss peak_rss_mb {mb:.1f} MB (limit 16 MB)")
PYEOF

    # Gating: p4x8_oltp at seeds 8 and 64, which the ledger still
    # lists as known failures ("unmatched local reply PeWbAck": an
    # invalidation's ack beat its thread's LRECEIVE). Both must finish
    # correct now that the engine holds an early local reply.
    for seed in 8 64; do
        "$BUILD_DIR-bench/perfbench/perfbench" --workload p4x8_oltp \
            --seed "$seed" --seconds 0.1 --trace 0 --known-failures run \
            --out-dir "$BUILD_DIR" \
            --ledger "$(dirname "$0")/../perfbench/ledger.json" |
            tail -n 1 > "$BUILD_DIR/perf-p4x8-seed$seed.json"
        if ! grep -q '"correct":true' "$BUILD_DIR/perf-p4x8-seed$seed.json"
        then
            echo "FAIL: p4x8_oltp seed $seed did not finish correct" >&2
            exit 1
        fi
        echo "p4x8_oltp seed $seed: correct"
    done

    # Host-time profiler artifact from this same build: the sampler
    # is always on. The fig5 jobs run long enough for it (one sample
    # per tick of CPU time; the quick sweep's jobs are too short).
    "$BUILD_DIR"/bench/sweep_main fig5 --threads 1 \
        --json PROFILE_breakdown.json > /dev/null
    python3 - <<'PYEOF'
import json, sys
jobs = json.load(open("PROFILE_breakdown.json"))["jobs"]
long_jobs = [j for j in jobs if j["host_seconds"] >= 0.2]
bad = [j["label"] for j in long_jobs if not j.get("host_profile")]
for label in bad:
    print(f"FAIL: {label}: a job of 0.2 s or more without a host "
          f"profile", file=sys.stderr)
if bad:
    sys.exit(1)
print(f"host profile present on all {len(long_jobs)} fig5 jobs of "
      f"0.2 s or more")
PYEOF
fi
