#!/usr/bin/env python3
"""Host-time benchmark of the MATCH simulator.

    python3 simbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a MATCH checkout. Builds libmatch.a with the
repository's own CMake build (target `match`) and the harness in
simbench/harness against it, both under .bench_build/, then:

  * starts the harness nine times and takes set-up time (process spawn
    to the harness's "simbench-ready" stamp, which follows library
    start-up, kernel tables, grid enumeration and a warm-up cell) as the
    median of the nine;
  * lets the last one run round(T / nominal pass seconds) whole passes
    over the workload's grid (at least one) and check every result;
  * prints one JSON object as the last line of stdout: the end-to-end
    metrics with --trace 0, the per-layer metrics with --trace 1.

The harness's own log goes to .bench_build/logs/; lines it marks with
"simbench:" (failed cells, failed checks) are echoed to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
SETUP_SAMPLES = 9


def fail(msg):
    print("simbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build(root):
    """Configure once, then (re)build the library target and the harness."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not \
            os.path.isdir(os.path.join(root, "src")):
        fail("no MATCH source tree in " + root + " (run from a checkout root)")
    build_dir = os.path.join(root, BUILD)
    os.makedirs(os.path.join(build_dir, "logs"), exist_ok=True)
    log = os.path.join(build_dir, "logs", "build.log")
    lib_dir = os.path.join(build_dir, "match")
    harness_dir = os.path.join(build_dir, "harness")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(lib_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", root, "-B", lib_dir])
    steps.append(["cmake", "--build", lib_dir, "--target", "match", "-j", jobs])
    if not os.path.isfile(os.path.join(harness_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(HERE, "harness"), "-B",
                      harness_dir, "-DMATCH_SOURCE_DIR=" + root,
                      "-DMATCH_LIBRARY=" + os.path.join(lib_dir, "libmatch.a")])
    steps.append(["cmake", "--build", harness_dir, "-j", jobs])
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            fail("build step failed: " + " ".join(cmd) + " (see " + log + ")")
    return os.path.join(harness_dir, "simbench")


def run_harness(cmd, log):
    """Start the harness; return (setup seconds, result dict or None)."""
    start = time.monotonic_ns()
    with open(log, "a") as err:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                              text=True)
    if proc.returncode != 0:
        fail("harness exited with status %d (see %s)" % (proc.returncode, log))
    ready, result = None, None
    for line in proc.stdout.splitlines():
        if line.startswith("simbench-ready "):
            ready = int(line.split()[1])
        elif line.startswith("{"):
            result = json.loads(line)
    if ready is None:
        fail("harness printed no set-up stamp (see " + log + ")")
    return (ready - start) * 1e-9, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    binary = build(root)
    sandbox = os.path.join(root, BUILD, "sandbox")
    os.makedirs(sandbox, exist_ok=True)
    os.makedirs(os.path.join(root, BUILD, "trace"), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    log = os.path.join(root, BUILD, "logs", tag + ".log")
    open(log, "w").close()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sandbox", sandbox,
           "--trace-out", os.path.join(root, BUILD, "trace", tag + ".json")]

    setups = [run_harness(cmd + ["--setup-only"], log)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup, result = run_harness(cmd, log)
    setups.append(setup)
    if result is None:
        fail("harness printed no result (see " + log + ")")
    with open(log) as f:
        for line in f:
            if line.startswith("simbench:"):
                sys.stderr.write(line)

    metrics = result["metrics"]
    if not args.trace:
        metrics = dict(setup_s={"value": statistics.median(setups),
                                "unit": "s"}, **metrics)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
