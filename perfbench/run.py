#!/usr/bin/env python3
"""Served-request benchmark: build served_bench from this checkout, run one workload.

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark binary (perfbench/src, built by
perfbench/served_bench.cmake inside the repository's own CMake project, so
with the repository's default flags) is configured and built on first use in
.bench_build/ (or $CARGO_TARGET_DIR). After every new build its
self-tests run once; a failing self-test fails the run. The last line of
standard output is its JSON result; the whole output is also kept in
.bench_build/perfbench/results/. The exit code is the binary's: non-zero on
any oracle, durability or harness failure.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def log_tail(path, lines=40):
    with open(path, errors="replace") as f:
        return "".join(f.readlines()[-lines:])


def build(bdir):
    """Configures (once) and builds served_bench; returns its path."""
    for need in ("CMakeLists.txt", os.path.join("src", "serve", "service.hpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no repository sources next to perfbench/ (missing %s)" % need, 2)
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "perfbench-build.log")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", ROOT, "-B", bdir,
                         "-DCMAKE_PROJECT_INCLUDE=" +
                         os.path.join(HERE, "served_bench.cmake")],
                        log, BUILD_TIMEOUT_S)
        if rc != 0:
            fail("configure failed:\n" + log_tail(log))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_logged(["cmake", "--build", bdir, "--target", "served_bench",
                     "-j", jobs], log, BUILD_TIMEOUT_S)
    if rc != 0:
        fail("build failed:\n" + log_tail(log))
    exe = os.path.join(bdir, "perfbench", "served_bench")
    if not os.path.exists(exe):
        fail("build produced no %s" % exe)
    return exe


def source_id():
    """The git revision (with -dirty), or a hash of the sources outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT] + list(args),
                              capture_output=True, text=True, timeout=10)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            sha = git("rev-parse", "--short=12", "HEAD").stdout.strip()
            dirty = "-dirty" if git("status", "--porcelain").stdout.strip() else ""
            return sha + dirty
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def selftest_once(exe, work):
    """Runs the self-tests after each new build of served_bench."""
    st = os.stat(exe)
    stamp = os.path.join(os.path.dirname(exe), "selftest.ok")
    key = "%d %d\n" % (st.st_mtime_ns, st.st_size)
    if os.path.exists(stamp) and open(stamp).read() == key:
        return 0
    log = os.path.join(os.path.dirname(exe), "selftest.log")
    rc = run_logged([exe, "--selftest", "--workdir", work], log, RUN_TIMEOUT_S)
    sys.stderr.write(log_tail(log))
    if rc == 0:
        with open(stamp, "w") as f:
            f.write(key)
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["kv-read", "kv-durable-write", "map-scan"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build, then run only the self-tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    exe = build(bdir)
    work = os.path.join(bdir, "perfbench", "work")
    if args.selftest:
        os.makedirs(work, exist_ok=True)
        stamp = os.path.join(os.path.dirname(exe), "selftest.ok")
        if os.path.exists(stamp):
            os.remove(stamp)
        sys.exit(selftest_once(exe, work))
    if selftest_once(exe, work) != 0:
        fail("self-tests failed; see %s" %
             os.path.join(os.path.dirname(exe), "selftest.log"))

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", work, "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    out = proc.stdout.decode(errors="replace")
    results = os.path.join(bdir, "perfbench", "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.txt" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        f.write(out)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
