#!/usr/bin/env python3
"""Builds bench_e2e from the repository's sources and runs one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 runs bench_e2e and prints BENCHMARK.json's end-to-end metrics;
--trace 1 runs bench_e2e_traced and prints its per-layer metrics. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The build goes to $CARGO_TARGET_DIR/e2e (default
.bench_build/e2e at the repository root); the first run builds, later runs
only relink what changed.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir, target):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    commands = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.append(configure)
    commands.append(["cmake", "--build", build_dir, "--target", target,
                     "-j", "4"])
    with open(log_path, "w") as log:
        for command in commands:
            if subprocess.call(command, stdout=log, stderr=subprocess.STDOUT):
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail("build failed: " + " ".join(command))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository's sources are missing; nothing to build")
    if not os.path.isfile(declared):
        fail("BENCHMARK.json is missing")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target_dir), "e2e")
    target = "bench_e2e_traced" if args.trace else "bench_e2e"
    build(build_dir, target)

    workdir = os.path.join(build_dir, "work")
    command = [os.path.join(build_dir, target),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--workdir", workdir,
               "--out", os.path.join(workdir, "BENCH_" + target[6:] + ".json"),
               "--trace-out", os.path.join(build_dir, "trace"),
               "--declared", declared]
    # A session of its own, so a timeout stops the workload's children too.
    process = subprocess.Popen(command, start_new_session=True)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
