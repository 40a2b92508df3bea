#!/usr/bin/env python3
"""End-to-end benchmark of the A/B harness (see README.md).

Builds the e2ebench package from this checkout's sources (first run only),
then runs one workload:

    python3 e2ebench/run.py --workload paper_report --seed 1 --trace 0

The last stdout line is the JSON result. Maintenance modes:

    python3 e2ebench/run.py --self-test         # the benchmark's own checks
    python3 e2ebench/run.py --update-digests    # rewrite digests.txt
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
DIGESTS = os.path.join(HERE, "digests.txt")
RUN_TIMEOUT_S = 170

# Seeds with committed digests: the reference seed and a held-out seed
# that later gain claims use to show the gain holds.
REFERENCE_SEED = 2014
HELD_OUT_SEED = 1729
WORKLOADS = ["paper_report", "scalar_control_bola", "observed_bba2"]

# |ledger.residual_frac| on scalar_control_bola, the workload whose layers
# the scalar decomposition describes exactly.
RESIDUAL_BOUND = 0.15


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the benchmark; exits non-zero on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "e2ebench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def run_binary(args, work_name):
    """Runs e2ebench in a fresh work directory that is removed afterwards.
    Returns (exit code, stdout)."""
    work = os.path.join(ROOT, ".bench_build", "work",
                        f"{work_name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        done = subprocess.run([BINARY, "--work-dir", work] + args,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
    return done.returncode, done.stdout


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test():
    """Determinism, metric presence, injected mismatch, exact counts and the
    ledger residual. Returns the number of failed checks."""
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in ("paper_report", "observed_bba2"):
        code, out = run_binary(["--check-threads", "--workload", w, "--seed",
                                str(REFERENCE_SEED), "--scale", "0.1"],
                               "threads")
        check(code == 0, f"{w}: digests identical at 1 and 4 threads")

    spec = benchmark_spec()
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in WORKLOADS:
        for trace in (0, 1):
            code, out = run_binary(["--workload", w, "--seed", "7",
                                    "--seconds", "1", "--trace", str(trace),
                                    "--scale", "0.1", "--digests", DIGESTS],
                                   "names")
            if code != 0:
                check(False, f"{w} --trace {trace}: runs")
                continue
            res = result_of(out)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == wanted[trace],
                  f"{w} --trace {trace}: every named metric with its unit")
            check(res["correct"] and res["failed"] == 0,
                  f"{w} --trace {trace}: outputs correct")
            if trace == 1:
                check(res["metrics"]["count.exact_repeat"]["value"] == 1,
                      f"{w}: registry counts repeat across traced passes")

    # No failed session at the committed seeds, full populations.
    for w in WORKLOADS:
        for seed in (REFERENCE_SEED, HELD_OUT_SEED):
            code, out = run_binary(["--workload", w, "--seed", str(seed),
                                    "--seconds", "1", "--trace", "0",
                                    "--digests", DIGESTS], "committed")
            res = result_of(out) if code == 0 else None
            check(res is not None and res["correct"] and res["failed"] == 0,
                  f"{w} at seed {seed}: ops_failed_frac 0 against the "
                  "committed digests")

    # One cell moved by one ulp must fail exactly that cell's sessions,
    # against the committed digests and against the replay oracle.
    paper = 6 * 2 * 12
    for seed, scale in ((REFERENCE_SEED, "1"), (7, "0.1")):
        code, out = run_binary(["--workload", "paper_report", "--seed",
                                str(seed), "--seconds", "1", "--trace", "0",
                                "--scale", scale, "--digests", DIGESTS,
                                "--inject-mismatch"], "inject")
        res = result_of(out) if code == 0 else None
        ok = (res is not None and not res["correct"] and
              res["failed"] * paper == res["attempted"])
        check(ok, f"injected mismatch (seed {seed}) fails 1/{paper} "
                  "of sessions")

    code, out = run_binary(["--workload", "scalar_control_bola", "--seed",
                            str(REFERENCE_SEED), "--seconds", "5", "--trace",
                            "1", "--digests", DIGESTS], "ledger")
    residual = result_of(out)["metrics"]["ledger.residual_frac"]["value"] \
        if code == 0 else float("inf")
    check(abs(residual) <= RESIDUAL_BOUND,
          f"scalar_control_bola: |ledger.residual_frac| = {residual:.3f} "
          f"<= {RESIDUAL_BOUND}")
    return len(failures)


def update_digests():
    lines = ["# e2ebench reference digests (README.md): FNV-1a 64 of the raw",
             "# bits of every WindowMetrics cell, [group][day][window] order,",
             "# and of observed_bba2's artifact files (8-byte-word steps),",
             "# with their sizes. Line: workload seed daysxsessions kind ...",
             "# Regenerate with: python3 e2ebench/run.py --update-digests"]
    for w in WORKLOADS:
        for seed in (REFERENCE_SEED, HELD_OUT_SEED):
            code, out = run_binary(["--emit-reference", "--workload", w,
                                    "--seed", str(seed)], "digests")
            if code != 0:
                fail(f"could not produce digests for {w} at seed {seed}")
            lines.extend(out.strip().splitlines())
    with open(DIGESTS, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {DIGESTS}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_test:
        sys.exit(1 if self_test() else 0)
    if args.update_digests:
        update_digests()
        return
    if args.workload is None:
        parser.error("--workload is required")
    code, out = run_binary(["--workload", args.workload, "--seed",
                            str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace), "--digests", DIGESTS],
                           args.workload)
    if code != 0:
        fail(f"{args.workload} exited with code {code}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
