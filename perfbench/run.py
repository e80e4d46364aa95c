#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload hotspot-native --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the library sources it compiles) in Release mode under
the build root, pins what the program reads from its environment, runs one
workload and prints its result as one JSON object on the last stdout line.
--trace 1 reports the per-layer metrics instead of the end-to-end ones and
leaves a Chrome trace and a metrics dump next to the run directory.

The build root is $CARGO_TARGET_DIR when set, else .bench_build, relative to
the repository root. Every file the benchmark writes lives under it.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("hotspot-native", "hotspot-cellpart", "svc-mixed")
RUN_TIMEOUT_S = 170
BUILD_JOBS = 4


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def configured_for(build_dir, bench_dir):
    """True when build_dir holds a CMake cache generated from bench_dir."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            return f"CMAKE_HOME_DIRECTORY:INTERNAL={bench_dir}\n" in f.read()
    except OSError:
        return False


def build(bench_dir, build_dir, env):
    if not configured_for(build_dir, bench_dir):
        shutil.rmtree(build_dir, ignore_errors=True)
        subprocess.run(["cmake", "-S", bench_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, env=env, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "finch_perfbench",
                    "-j", str(BUILD_JOBS)],
                   check=True, env=env, stdout=sys.stderr)
    return os.path.join(build_dir, "finch_perfbench")


def pinned_env(build_root):
    """The benchmark's own environment: no inherited FINCH_* knobs, a
    benchmark-owned JIT kernel cache, temporary files inside the build root."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FINCH_")}
    env["FINCH_JIT_CACHE_DIR"] = os.path.join(build_root, "jit-cache")
    env["TMPDIR"] = os.path.join(build_root, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(bench_dir)
    if not os.path.exists(os.path.join(repo_root, "src", "CMakeLists.txt")):
        log(f"library sources missing under {repo_root}/src; nothing to benchmark")
        return 2
    build_root = os.path.join(repo_root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = pinned_env(build_root)

    t0 = time.monotonic()
    try:
        binary = build(bench_dir, os.path.join(build_root, "perfbench-release"), env)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    log(f"build ready in {time.monotonic() - t0:.1f} s")

    run_dir = os.path.join(build_root, "run", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--run-dir", run_dir]
    if args.trace:
        out = os.path.join(build_root, "run")
        cmd += ["--trace", os.path.join(out, f"TRACE_{args.workload}.json"),
                "--metrics-json", os.path.join(out, f"METRICS_{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
        return 3
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        log(f"no result line: {e}")
        return 3
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"malformed result: {sorted(result)}")
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
