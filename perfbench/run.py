#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <batch_modeljoin|batch_baselines|serve_point|serve_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the engine and the benchmark binary
(Release) into $CARGO_TARGET_DIR, or .bench_build when unset, and every run
then re-runs the incremental build and the harness self-test. Build output
goes to stderr; the binary's report goes to stdout, ending in one JSON line.
The exit code is the binary's: non-zero when a correctness check failed.
Traced runs write their spans to <build dir>/traces/.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_id():
    """git commit when available, else a digest of the engine sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:12]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"engine sources not found under {ROOT}/src")
        return False
    binary_dir = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(binary_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", binary_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", binary_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, check=False).returncode == 0


def main(argv):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        log("build failed")
        return 2
    binary_dir = os.path.join(build_dir, "perfbench")
    selftest = subprocess.run([os.path.join(binary_dir, "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        log("harness self-test failed")
        return 2
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(binary_dir, "perfbench"), *argv,
           "--out-dir", trace_dir, "--commit", source_id()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S}s and was killed")
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
