#!/usr/bin/env python3
"""Build and run the Squid benchmark from the root of a source checkout.

    python3 squidbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Configures and builds squidbench/CMakeLists.txt (Release) into
$CARGO_TARGET_DIR/squidbench, or .bench_build/squidbench when that variable
is unset, then runs the binary. Build output goes to stderr; the binary's
summary goes to stdout, whose last line is the JSON result. Traced runs
write their spans under the build directory's traces/ folder.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("flex_paper", "flex_dense", "geo_mixed", "geo_parallel")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"squidbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over every file of the library and the benchmark, in path order."""
    digest = hashlib.sha256()
    for top in ("include", "src", "squidbench"):
        for base, dirs, files in os.walk(os.path.join(root, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "squidbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..60")

    root = os.getcwd()
    for need in ("src/core/system.cpp", "include/squid/core/system.hpp",
                 "squidbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"run from the root of a Squid checkout ({need} is missing)")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "squidbench")
    build(root, build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "squidbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir, "--git-sha", git_sha(root),
           "--source-digest", source_digest(root)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"squidbench binary exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith('{"correct"'):
        sys.stderr.write(out)
        fail(f"squidbench binary exited with code {proc.returncode} and no result")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
