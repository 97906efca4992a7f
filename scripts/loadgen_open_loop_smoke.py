#!/usr/bin/env python3
"""Open-loop load-generator smoke (DESIGN.md §9 and §12).

Two passes of `si_loadgen -mode open` against a fresh `si_serve` on an
ephemeral port, over the binary wire protocol:

  1. steady: -rate 20000 for 1 s, well under capacity. The run must exit 0
     with lost=0 and misrouted=0, and the offered rate (requests sent over
     the send window) must be within 10% of the target.
  2. overload: the server admits at -watermark 1 and the generator offers
     far more than it can serve. Rejections must be shed (shed > 0), never
     turned into lost requests (lost=0, misrouted=0), and the run must
     terminate.

Exit 0 when both passes hold. Registered as the LoadgenOpenLoopSmoke ctest
and runnable by hand:

  python3 scripts/loadgen_open_loop_smoke.py --build-dir build
"""
import argparse
import os
import re
import signal
import subprocess
import sys
import time

LISTEN_RE = re.compile(r"listening on 127\.0\.0\.1:(\d+)")
COUNT_RE = re.compile(r"\b(sent|completed|rejected|failed|lost|misrouted)"
                      r"=(\d+)")
OFFERED_RE = re.compile(r"offered=(\d+) req/s")
# Far above what a -watermark 1 server admits on any host, low enough that
# even a slow host answers every rejection inside the loadgen's 10 s grace.
OVERLOAD_RATE = 400000


def fail(msg):
    print(f"loadgen_open_loop_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def start_server(si_serve, extra):
    proc = subprocess.Popen(
        [si_serve, "-workload", "hashmap", "-shards", "2", "-port", "0",
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                fail(f"server exited early with status {proc.returncode}")
            continue
        sys.stdout.write("  server: " + line)
        m = LISTEN_RE.search(line)
        if m:
            return proc, int(m.group(1))
    proc.kill()
    fail("server never reported a port")


def stop_server(proc):
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=60)
    for line in out.splitlines():
        print("  server:", line)
    if proc.returncode != 0:
        fail(f"server exited {proc.returncode} after the drain")


def run_open_loop(si_loadgen, port, rate, timeout_s):
    cmd = [si_loadgen, "-port", str(port), "-conns", "8", "-mode", "open",
           "-rate", str(rate), "-duration-s", "1"]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"loadgen did not terminate within {timeout_s}s: "
             f"{' '.join(cmd)}")
    for line in (run.stdout + run.stderr).splitlines():
        print("  loadgen:", line)
    counts = {k: int(v) for k, v in COUNT_RE.findall(run.stdout)}
    m = OFFERED_RE.search(run.stdout)
    if m is None or "lost" not in counts or "misrouted" not in counts:
        fail("could not parse the loadgen summary")
    return run.returncode, counts, int(m.group(1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build",
                    help="CMake build dir holding tools/si_serve etc.")
    args = ap.parse_args()

    build = os.path.abspath(args.build_dir)
    si_serve = os.path.join(build, "tools", "si_serve")
    si_loadgen = os.path.join(build, "tools", "si_loadgen")
    for tool in (si_serve, si_loadgen):
        if not os.path.exists(tool):
            fail(f"missing tool {tool} (build first)")

    target = 20000
    server, port = start_server(si_serve, [])
    try:
        rc, counts, offered = run_open_loop(si_loadgen, port, target, 60)
    finally:
        stop_server(server)
    if rc != 0:
        fail(f"steady pass: loadgen exited {rc}")
    if counts["lost"] != 0 or counts["misrouted"] != 0:
        fail(f"steady pass: lost={counts['lost']} "
             f"misrouted={counts['misrouted']}")
    if abs(offered - target) > 0.10 * target:
        fail(f"steady pass: offered {offered} req/s, target {target}")
    print(f"loadgen_open_loop_smoke: steady pass ok "
          f"(offered {offered} req/s, target {target})")

    server, port = start_server(si_serve, ["-watermark", "1"])
    try:
        _, counts, _ = run_open_loop(si_loadgen, port, OVERLOAD_RATE, 120)
    finally:
        stop_server(server)
    if counts["rejected"] == 0:
        fail("overload pass: nothing was shed")
    if counts["lost"] != 0 or counts["misrouted"] != 0:
        fail(f"overload pass: lost={counts['lost']} "
             f"misrouted={counts['misrouted']}")
    print(f"loadgen_open_loop_smoke: overload pass ok "
          f"(shed {counts['rejected']} of {counts['sent']})")
    print("loadgen_open_loop_smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
