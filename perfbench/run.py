#!/usr/bin/env python3
"""End-to-end benchmark of aasim: build, run one workload, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --check [--seed <n>] [--seconds <s>]

Run from the root of a source checkout. The first call configures and
builds perfbench/CMakeLists.txt (the aasim libraries from src/ plus
the harness) into .bench_build/perfbench; later calls rebuild only what
changed.

--trace 0 runs the workload once and reports every end-to-end metric
of BENCHMARK.json. --trace 1 runs it untraced and then traced with the
same seed, reports every per-layer metric from the traced run, and
prints the tracing overhead (traced minus untraced end-to-end results).
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The command exits non-zero, after printing that line with
"correct": false, when the program vouched for a wrong answer.

--check runs every BENCHMARK.json workload twice with one seed and
asserts that the simulated-statistics fingerprint repeats exactly.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "aasim_perfbench"
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no aasim sources at " + str(ROOT / "src") +
             "; run from the root of a source checkout", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "w") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))


def run_binary(workload, seed, seconds, trace):
    """Run one workload; echo its report; return (exit code, result)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-{seed}.spans.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload} exited {proc.returncode} without a result")
    return proc.returncode, result


def pick(metrics, names):
    """The named metrics as {"value", "unit"}, or fail if any is missing."""
    missing = [n for n in names if n not in metrics]
    if missing:
        fail("program did not report: " + ", ".join(missing))
    return {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
            for n in names}


def print_overhead(untraced, traced):
    print("tracing overhead (traced minus untraced, same seed)")
    print(f"  {'metric':24}{'untraced':>16}{'traced':>16}{'diff':>14}{'diff %':>9}")
    for name, m in untraced["end_to_end"].items():
        a, b = m["value"], traced["end_to_end"][name]["value"]
        pct = (b - a) / a * 100.0 if a else 0.0
        print(f"  {name:24}{a:16.6g}{b:16.6g}{b - a:14.4g}{pct:8.2f}%")


def measure(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: {args.workload} is not a BENCHMARK.json workload",
              file=sys.stderr)
    build()
    print(f"perfbench seed {args.seed} nproc {os.cpu_count()}")
    code, res = run_binary(args.workload, args.seed, args.seconds, False)
    if args.trace and code == 0:
        untraced = res
        code, res = run_binary(args.workload, args.seed, args.seconds, True)
        print_overhead(untraced, res)
    if code not in (0, 3):
        fail(f"{args.workload} run failed (exit {code}): "
             f"{res.get('invalid_reason') or 'see output above'}")
    correct = res["silent_wrong"] == 0
    metrics = {}
    if correct:
        section = "per_layer" if args.trace else "end_to_end"
        metrics = pick(res[section], [m["name"] for m in spec[section]])
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    if not correct:
        sys.exit(1)


def check(args):
    """Same seed twice: the fingerprint must repeat on every workload."""
    build()
    ok = True
    for w in load_spec()["workloads"]:
        prints = []
        for _ in range(2):
            code, res = run_binary(w["name"], args.seed, args.seconds, False)
            if code != 0:
                fail(f"{w['name']} exited {code}")
            prints.append(res["fingerprint"])
        same = prints[0] == prints[1]
        ok = ok and same
        print(f"check {w['name']}: fingerprint "
              f"{'repeats' if same else 'DIFFERS'} across two runs of seed {args.seed}")
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()
    if args.check:
        args.seconds = args.seconds or 3
        check(args)
    else:
        if not args.workload:
            fail("--workload is required", 2)
        args.seconds = args.seconds or load_spec()["run_seconds"]
        measure(args)


if __name__ == "__main__":
    main()
