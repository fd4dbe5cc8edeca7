#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md beside this file).

Run from the repository root:

    python3 e2ebench/run.py --workload sign-verify --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test

The first call configures and builds e2ebench/ (which pulls in the library
from the repository root) into $CARGO_TARGET_DIR, default .bench_build/; later
calls only rebuild what changed. For one workload the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; "all" runs
every workload in turn and prints each metric with its unit. Any failure —
a missing source tree, a build error, a wrong answer, a timeout — exits
non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ["sign-verify", "signed-log", "broadcast-stream", "msgpass-rw",
             "msgpass-faults"]


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    """Configures (once) and builds e2e_bench; returns the binary's path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at the repository root: the benchmark builds "
                 "the library from source and cannot run without it")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "e2e_bench",
                      "-j", "4"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (" + " ".join(cmd) + ")")
    return os.path.join(out, "e2e_bench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stderr=subprocess.DEVNULL).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_bench(binary, args):
    """Runs the binary; returns (exit code, stdout). Kills it on timeout."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S}s", 1)
    return proc.returncode, out


def self_test(binary):
    """Unit checks inside the binary, then a run with a planted wrong
    answer, which must fail without printing a result."""
    code, out = run_bench(binary, ["--self-test"])
    sys.stdout.write(out)
    if code != 0:
        fail("self-test failed", 1)
    for workload in WORKLOADS:
        code, out = run_bench(binary, [
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", "0", "--plant-wrong-answer", "7"])
        last = out.strip().splitlines()[-1] if out.strip() else ""
        if code != 3 or last.startswith("{"):
            fail(f"planted wrong answer on {workload} did not fail the run "
                 f"(exit {code})", 1)
        print(f"[ OK ] planted wrong answer fails {workload} (exit {code})")
    print("run.py self-test passed")


def run_workload(binary, workload, args):
    """One benchmark run; returns (its '#' lines, the parsed result)."""
    bench_args = ["--workload", workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--git-sha", git_sha()]
    if args.trace:
        spans = os.path.join(os.path.dirname(build_dir()), "spans")
        os.makedirs(spans, exist_ok=True)
        bench_args += ["--spans-out", os.path.join(
            spans, f"{workload}-seed{args.seed}.jsonl")]
    code, out = run_bench(binary, bench_args)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail(f"{workload}: benchmark exited {code}", code or 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(out)
        fail(f"{workload}: benchmark printed no result line", 1)
    if not result.get("correct"):
        sys.stdout.write(out)
        fail(f"{workload}: benchmark reported incorrect output", 1)
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.self_test:
        self_test(binary)
        return
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")

    if args.workload != "all":
        lines, result = run_workload(binary, args.workload, args)
        sys.stdout.write("\n".join(lines) + "\n")
        print(json.dumps(result))
        return
    for workload in WORKLOADS:
        lines, result = run_workload(binary, workload, args)
        print(f"== {workload}")
        sys.stdout.write("\n".join(
            line for line in lines
            if line.startswith("# fail_share") or " p99=" in line) + "\n")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")


if __name__ == "__main__":
    main()
