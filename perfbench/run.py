#!/usr/bin/env python3
"""Builds and runs the phase-cycle benchmark (perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload table1-int --seed 1 --seconds 15 --trace 0

The benchmark and the phch library are built from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build output
goes to standard error; standard output carries the benchmark's record, whose
last line is the JSON result. The script exits non-zero if any output was
wrong (the result then says "correct": false), and exits non-zero without
printing a result if the build fails, the run crashes or times out, or the
record names a metric that BENCHMARK.json does not declare.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "phase_bench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "phase_bench")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]],
            [w["name"] for w in spec["workloads"]])


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else None


def check_record(result, trace, workload):
    """The record's metric names must be declared, unique and well formed;
    a workload listed in BENCHMARK.json must report every declared metric."""
    e2e, layer, workloads = declared_metrics()
    want = layer if trace else e2e
    names = list(result["metrics"])
    bad = [n for n in names if not NAME_RE.match(n)]
    if bad:
        return "malformed metric names: %s" % bad
    if len(set(names)) != len(names):
        return "duplicate metric names"
    undeclared = sorted(set(names) - set(want))
    if undeclared:
        return "metrics not declared in BENCHMARK.json: %s" % undeclared
    missing = sorted(set(want) - set(names))
    if workload in workloads and missing:
        return "declared metrics not reported: %s" % missing
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size-shift", type=int, default=0,
                    help="divide every input size by 2^K (for the benchmark's own tests)")
    ap.add_argument("--drop-reference-key", action="store_true",
                    help="drop one key from a reference answer: the run must fail")
    ap.add_argument("--tagged-probes", action="store_true",
                    help="time the phases with the default SIMD backend instead of tags off "
                         "(README.md, \"Known defect\")")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.size_shift:
        cmd += ["--size-shift", str(args.size_shift)]
    if args.drop_reference_key:
        cmd.append("--drop-reference-key")
    if args.tagged_probes:
        cmd.append("--tagged-probes")
    if args.trace:
        cmd += ["--trace-out", os.path.join(out, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    sha = git_sha()
    if sha:
        cmd += ["--git-sha", sha]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(stdout)
        fail("no JSON result from the benchmark (exit code %d)" % proc.returncode, 3)
    body = "\n".join(lines[:-1])
    problem = check_record(result, args.trace, args.workload)
    if problem:
        print(body)
        fail(problem, 3)
    print(body)
    print(json.dumps(result))
    if proc.returncode != 0 or not result.get("correct"):
        fail("outputs were wrong: %d of %d operations failed their checks (exit code %d)"
             % (result.get("failed", 0), result.get("attempted", 0), proc.returncode), 1)


if __name__ == "__main__":
    main()
