#!/usr/bin/env python3
"""Build and run the hdldp end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which builds the hdldp
library from the repository's sources) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed.
Build output goes to stderr. The benchmark binary's stdout is passed
through after its last line -- the result object -- is checked against
BENCHMARK.json: every metric of the selected table (`end_to_end` for
--trace 0, `per_layer` for --trace 1) present with its unit, and nothing
else. Exit status: the binary's (0 ok, 1 a correctness check failed), or
2 when the build, the run or that validation fails; no result line is
printed then.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out, "--target", "hdldp_perfbench",
              "-j", jobs]]
    # An existing tree re-runs its configure step by itself when a
    # CMakeLists.txt changed.
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step %s failed: %s" % (step[:2], err))
        if done.returncode != 0:
            fail("build step %s exited %d" % (" ".join(step[:2]),
                                             done.returncode))
    return os.path.join(out, "hdldp_perfbench")


def load_spec():
    try:
        with open(BENCHMARK_JSON) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)


def validate(result_line, spec, trace):
    """Returns the parsed result, or a list of contract violations."""
    try:
        result = json.loads(result_line)
    except ValueError:
        return None, ["last line is not JSON"]
    errors = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None, ["result keys are not correct/attempted/failed/metrics"]
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append(key + " is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted < 1")
    table = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    got = result["metrics"] if isinstance(result["metrics"], dict) else {}
    for name in sorted(set(want) - set(got)):
        errors.append("metric %s missing" % name)
    for name in sorted(set(got) - set(want)):
        errors.append("metric %s not in BENCHMARK.json" % name)
    for name in sorted(set(want) & set(got)):
        entry = got[name]
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            errors.append("metric %s is not {value, unit}" % name)
            continue
        if entry["unit"] != want[name]:
            errors.append("metric %s has unit %r, want %r" %
                          (name, entry["unit"], want[name]))
        value = entry["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append("metric %s has no numeric value" % name)
    return result, errors


def run_binary(exe, workload, seed, seconds, trace, extra=()):
    """Runs one benchmark process; returns (exit code, stdout lines)."""
    bdir = build_dir()
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch-root", os.path.join(bdir, "scratch"),
           "--trace-dir", os.path.join(bdir, "traces")]
    cmd.extend(extra)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    except OSError as err:
        fail("cannot run %s: %s" % (exe, err))
    return done.returncode, done.stdout.splitlines()


def self_test(exe, spec):
    """Every workload, at its gated shape with a 1-second timed phase,
    emits exactly BENCHMARK.json's metrics with their units, traced and
    untraced, and a forced check failure exits nonzero with
    "correct": false."""
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            code, lines = run_binary(exe, workload, 1, 1, trace)
            label = "%s --trace %d" % (workload, trace)
            if code != 0 or not lines:
                problems.append("%s exited %d" % (label, code))
                continue
            result, errors = validate(lines[-1], spec, trace)
            problems.extend("%s: %s" % (label, e) for e in errors)
            if result is not None and result.get("correct") is not True:
                problems.append("%s: correct is not true" % label)
    workload = spec["workloads"][0]["name"]
    code, lines = run_binary(exe, workload, 1, 1, False,
                             ["--force-check-failure"])
    result, errors = validate(lines[-1], spec, False) if lines else (None, [])
    if code == 0:
        problems.append("forced check failure exited 0")
    if result is None or result.get("correct") is not False or \
            result.get("failed", 0) < 1:
        problems.append("forced check failure not reported as failed")
    for problem in problems:
        print("self-test: " + problem, file=sys.stderr)
    print("self-test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if not args.self_test:
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            fail("--workload must be one of %s" % ", ".join(names))
    exe = build()
    if args.self_test:
        sys.exit(self_test(exe, spec))
    seconds = args.seconds
    if seconds == int(seconds):
        seconds = int(seconds)
    code, lines = run_binary(exe, args.workload, args.seed, seconds,
                             args.trace == 1)
    if not lines:
        fail("%s printed nothing (exit %d)" % (args.workload, code))
    result, errors = validate(lines[-1], spec, args.trace == 1)
    if errors or code not in (0, 1):
        for error in errors:
            print("perfbench: " + error, file=sys.stderr)
        fail("%s: no valid result (exit %d)" % (args.workload, code))
    for line in lines:
        print(line)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
