#!/usr/bin/env python3
"""Build cgbench from this checkout's sources, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR if set,
else .bench_build (a Release CMake build of perfbench/, which compiles ../src).
Build output goes to standard error; standard output is cgbench's, whose last
line is the run's JSON result. Spans of a traced run are written under
<build dir>/spans/. Every other flag is passed to cgbench unchanged (see
perfbench/src/main.cpp). Exits non-zero, without a result, if the program's
sources are missing or the build fails.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def flag(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def commit():
    """The checkout's commit, read without leaving the checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def build(build_dir, env):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", build_dir, "--target", "cgbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, env=env).returncode == 0


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no program sources at ./src; run from the "
                         "root of a checkout\n")
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    # Keep the compiler's and the benchmark's temporary files in the build
    # directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(build_dir, env):
        sys.stderr.write("run.py: build failed\n")
        return 2
    binary = os.path.join(build_dir, "cgbench")
    extra = []
    if flag(args, "--spans") is None and flag(args, "--trace") == "1":
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        name = "%s-seed%s.json" % (flag(args, "--workload"),
                                   flag(args, "--seed"))
        extra += ["--spans", os.path.join(spans_dir, name)]
    if flag(args, "--commit") is None:
        extra += ["--commit", commit()]
    sys.stdout.flush()
    return subprocess.run([binary] + args + extra, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
