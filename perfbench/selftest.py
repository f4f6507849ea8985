#!/usr/bin/env python3
"""Self-test of the benchmark's own checks, at tiny scale (about a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout. It proves four things:
  1. a tiny run of every workload, untraced and traced, exits 0 with a result
     whose metrics are exactly BENCHMARK.json's end_to_end (untraced) or
     per_layer (traced) names, with their units;
  2. a run whose packed archive has one flipped byte, or is truncated, exits
     non-zero, for every workload;
  3. the spans of a traced run are written;
  4. a copy of the benchmark without the program's sources exits non-zero
     and prints no result.
Exits 0 when all hold, 1 otherwise.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    "run.py")]
TINY = ["--seconds", "1", "--sites", "40", "--queries", "200", "--sample", "8"]


def run(workload, trace, extra=()):
    args = RUN + ["--workload", workload, "--seed", "7", "--trace",
                  str(trace)] + TINY + list(extra)
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(ok, what):
        print("%-4s %s" % ("ok" if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    workloads = [w["name"] for w in spec["workloads"]]
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    for workload in workloads:
        spans = os.path.join(build_dir, "spans", "%s-seed7.json" % workload)
        if os.path.exists(spans):
            os.remove(spans)
        for trace in (0, 1):
            code, result, _ = run(workload, trace)
            what = "%s --trace %d" % (workload, trace)
            expect(code == 0 and result is not None and result["correct"],
                   what + " exits 0 with a correct result")
            if result is None:
                continue
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(got == expected[trace],
                   what + " emits exactly its named metrics")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   what + " attempted work and failed none")
        expect(os.path.isfile(spans), workload + " traced run wrote spans")

    for workload in workloads:
        for how in ("flip", "truncate"):
            code, result, _ = run(workload, 0, ["--corrupt", how])
            expect(code != 0 and (result is None or not result["correct"]),
                   "%s with a %s archive exits non-zero" % (workload, how))

    # Without the program's sources next to it the benchmark must refuse,
    # without a result.
    bare = os.path.join(build_dir, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                    os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           workloads[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=bare, env=env, capture_output=True, text=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "a checkout without src/ exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %s" % ("PASS" if not failures else
                            "%d FAILED" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
