#!/usr/bin/env python3
"""Run one workload of the ESM benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload build|search|serve --seed N \
        --seconds S --trace 0|1

Builds the repository's libraries (tests, benches and examples off) and the
benchmark program under .bench_build/ (or $CARGO_TARGET_DIR), remakes the
MLP artifacts that `search` and `serve` load when the sources changed, then
runs the workload. The last stdout line is the run's JSON result; a run
that cannot build or run exits non-zero without printing one.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 600
ARTIFACT_TIMEOUT_S = 300
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout, env=None):
    """Runs cmd with output to log_path; exits on failure."""
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout, env=env)
        except subprocess.TimeoutExpired:
            fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("failed: " + " ".join(cmd))


def source_digest(root):
    """Digest of every file the program and the benchmark are built from."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", os.path.relpath(HERE, root)):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def build(root, build_root):
    jobs = str(min(4, os.cpu_count() or 1))
    logs = os.path.join(build_root, "logs")
    os.makedirs(logs, exist_ok=True)
    lib_dir = os.path.join(build_root, "esm")
    bench_dir = os.path.join(build_root, "perfbench")
    run_logged(["cmake", "-S", root, "-B", lib_dir,
                "-DCMAKE_BUILD_TYPE=Release", "-DESM_BUILD_TESTS=OFF",
                "-DESM_BUILD_BENCH=OFF", "-DESM_BUILD_EXAMPLES=OFF"],
               os.path.join(logs, "configure-esm.log"), BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", lib_dir, "-j", jobs],
               os.path.join(logs, "build-esm.log"), BUILD_TIMEOUT_S)
    run_logged(["cmake", "-S", HERE, "-B", bench_dir,
                "-DCMAKE_BUILD_TYPE=Release", "-DESM_LIB_DIR=" + lib_dir],
               os.path.join(logs, "configure-perfbench.log"), BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", bench_dir, "-j", jobs],
               os.path.join(logs, "build-perfbench.log"), BUILD_TIMEOUT_S)
    return os.path.join(bench_dir, "esm_perfbench")


def artifacts(root, build_root, binary, env):
    """The artifact directory for these sources, made on first use."""
    out = os.path.join(build_root, "artifacts", source_digest(root))
    if os.path.exists(os.path.join(out, "DONE")):
        return out
    parent = os.path.dirname(out)
    if os.path.isdir(parent):
        shutil.rmtree(parent)  # artifacts of other sources are never reused
    staging = out + ".tmp"
    os.makedirs(staging)
    run_logged([binary, "make-artifacts", "--out", staging],
               os.path.join(build_root, "logs", "make-artifacts.log"),
               ARTIFACT_TIMEOUT_S, env=env)
    os.rename(staging, out)
    open(os.path.join(out, "DONE"), "w").close()
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build", "search", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("run from the root of an ESM source checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    env = dict(os.environ, ESM_THREADS="1")
    binary = build(root, build_root)
    artifact_dir = artifacts(root, build_root, binary, env)
    work_dir = os.path.join(build_root, "work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--artifacts", artifact_dir,
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("esm_perfbench exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    expected = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        fail("metrics %s differ from BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(expected)))
    for line in lines[:-1]:
        print(line)
    print(lines[-1])


if __name__ == "__main__":
    main()
