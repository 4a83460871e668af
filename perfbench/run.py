#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. The script configures and builds the
perfbench binary (and the simulator library it links) from source into
the perfbench/ subdirectory of $CARGO_TARGET_DIR, or of .bench_build when
that is unset, then runs it with the same arguments; with --workload all,
once per workload, each in its own process. Build output goes to stderr;
the benchmark's report goes to stdout, whose last line is the JSON result.
Reports and span files are written under <build dir>/perfbench-out/.

Exits non-zero without a result line when the build fails (for example
in a directory that holds the benchmark but not the simulator sources).
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False


def configured_for(build_dir):
    """Source directory a build tree was configured for, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build_dir):
    """Configure (once per build tree) and build the perfbench target.

    Only a tree configured for a perfbench/ source directory is ever
    removed (one left by a checkout at another path); any other tree
    at build_dir is left alone and the build fails.
    """
    home = configured_for(build_dir)
    if home is not None and os.path.realpath(home) != os.path.realpath(HERE):
        if os.path.basename(os.path.normpath(home)) != "perfbench":
            log(f"{build_dir} holds a build of {home}; not touching it")
            return False
        log(f"{build_dir} was configured for {home}; reconfiguring")
        shutil.rmtree(build_dir)
        home = None
    if home is None:
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd, 300):
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    return run_quiet(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", jobs], 840)


def source_digest():
    """SHA-256 over the simulator sources, to identify a checkout that
    is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_one(cmd):
    """Run the benchmark binary once; its exit code."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        proc.kill()
        proc.wait()
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    build_dir = os.path.join(os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR")
        or os.path.join(ROOT, ".bench_build")), "perfbench")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no simulator sources under {ROOT}/src")
        return 1
    if not build(build_dir):
        log("build failed")
        return 1
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    ledger = os.path.join(HERE, "ledger.json")
    common = ["--ledger", ledger, "--out-dir", out_dir,
              "--commit", commit(), "--source-digest", source_digest()]
    args = sys.argv[1:]
    if "all" not in args[1::2]:
        return run_one([os.path.join(build_dir, "perfbench"), *args,
                        *common])
    # --workload all: one process per workload, so each reports its own
    # peak memory and gets its own time limit.
    with open(ledger) as f:
        names = list(json.load(f)["workloads"])
    rc = 0
    for name in names:
        one = [name if a == "all" and i % 2 else a
               for i, a in enumerate(args)]
        rc = max(rc, run_one([os.path.join(build_dir, "perfbench"), *one,
                              *common]))
    return rc


if __name__ == "__main__":
    sys.exit(main())
