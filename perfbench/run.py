#!/usr/bin/env python3
"""Served-statement benchmark for focq: build, record provenance, run.

Usage (from the repository root):

  python3 perfbench/run.py --workload read-large|read-small|update-cover \
      --seed N --seconds S --trace 0|1

Builds focq_serve and the focq_perfbench load generator from this source
tree into
.bench_build (Release; numbers from any other build type are refused),
prints the build provenance, then runs focq_perfbench, which generates the
workload's structure and statements from the seed, drives focq_serve over
loopback and checks every answer. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md here.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("read-large", "read-small", "update-cover")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds focq_perfbench and focq_serve."""
    log_path = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", BUILD, "--target", "focq_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


def cache_entry(text, key):
    m = re.search(r"^%s:[A-Z]+=(.*)$" % re.escape(key), text, re.MULTILINE)
    return m.group(1) if m else ""


def source_digest():
    """sha256 over the program's sources and build files."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_state():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none", None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, check=True).stdout.strip() != ""
        return sha, dirty
    except (OSError, subprocess.CalledProcessError):
        return "none", None


def provenance():
    """How focq was built, read from the build tree."""
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        cache = f.read()
    build_type = cache_entry(cache, "CMAKE_BUILD_TYPE")
    compiler_id = compiler_version = ""
    files = os.path.join(BUILD, "CMakeFiles")
    for entry in sorted(os.listdir(files)):
        path = os.path.join(files, entry, "CMakeCXXCompiler.cmake")
        if os.path.isfile(path):
            with open(path) as f:
                text = f.read()
            m = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
            compiler_id = m.group(1) if m else ""
            m = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
            compiler_version = m.group(1) if m else ""
    flags = " ".join(x for x in (
        cache_entry(cache, "CMAKE_CXX_FLAGS"),
        cache_entry(cache, "CMAKE_CXX_FLAGS_" + build_type.upper())) if x)
    sha, dirty = git_state()
    return {
        "build_type": build_type,
        "compiler": "%s %s" % (compiler_id, compiler_version),
        "cxx_flags": flags,
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("focq source tree not found next to perfbench/ (missing %s)"
                 % needed, 2)

    build()
    prov = provenance()
    if prov["build_type"] != "Release":
        fail("refusing to report numbers from a %r build; reconfigure %s as "
             "Release" % (prov["build_type"], BUILD), 3)
    prov.update(workload=args.workload, seed=args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)

    workdir = os.path.join(BUILD, "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(BUILD, "focq_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        fail("focq_perfbench exceeded %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(workdir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("focq_perfbench exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(out)
        fail("focq_perfbench printed no result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
