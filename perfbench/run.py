#!/usr/bin/env python3
"""Repository benchmark for tfgc: builds perfbench/ from source, runs one
workload, checks it, and prints one JSON result as the last stdout line.

    python3 perfbench/run.py --workload gc_matrix --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). --trace 0 reports the end-to-end metrics
of BENCHMARK.json, --trace 1 the per-layer metrics of a separate traced run
(its spans go to <build>/spans/). Lines before the result record the host
(CPUs, load before and after, build provenance, host_ref_ms), each cell's
median and the ungated facts. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("compile_large", "gc_matrix", "parallel_gc")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures and builds tfgc_perf; returns its path. Exits non-zero
    when the tfgc sources are missing or the build fails."""
    if not (ROOT / "src" / "driver" / "Compiler.h").is_file():
        log("perfbench: tfgc sources not found under", ROOT / "src")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            log("perfbench: build timed out:", " ".join(cmd))
            sys.exit(1)
        if r.returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(1)
    return out / "tfgc_perf"


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace, scale=1.0):
    """Runs one workload; returns the binary's JSON report."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", str(scale)]
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{workload}-seed{seed}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out:", " ".join(cmd))
        sys.exit(1)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log("perfbench: tfgc_perf failed with exit code", r.returncode)
        sys.exit(1)
    return json.loads(lines[-1])


def validate(report, expected):
    """Problems with the report's metrics against the expected (name,
    unit) list: missing, extra, wrong unit, non-finite values."""
    problems = []
    got = report["metrics"]
    names = {m["name"] for m in expected}
    for m in expected:
        v = got.get(m["name"])
        if v is None:
            problems.append(f"missing metric {m['name']}")
        elif v["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {v['unit']}, expected {m['unit']}")
        elif not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            problems.append(f"{m['name']}: value {v['value']} is not a number")
    problems += [f"unexpected metric {n}" for n in got if n not in names]
    return problems


def host_record(report, load_before, load_after):
    info = report["info"]
    return {
        "nproc": os.cpu_count(),
        "load_before": [round(x, 2) for x in load_before],
        "load_after": [round(x, 2) for x in load_after],
        **report["build"],
        "host_ref_ms": info["host_ref_ms"]["value"],
    }


def run_once(args):
    binary = build()
    bench = spec()
    expected = bench["per_layer"] if args.trace else bench["end_to_end"]
    load_before = os.getloadavg()
    report = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    load_after = os.getloadavg()

    problems = validate(report, expected)
    if not args.trace:
        # Every gated metric is a positive measurement.
        problems += [f"{n} is {v['value']}" for n, v in report["metrics"].items()
                     if v["value"] <= 0]
    for e in report["errors"]:
        log("perfbench: check failed:", e)
    for p in problems:
        log("perfbench: invalid result:", p)

    print("host", json.dumps(host_record(report, load_before, load_after)))
    for name, v in report["metrics"].items():
        print(f"metric {name} = {v['value']:.6g} {v['unit']}")
    for name, v in report["info"].items():
        print(f"info {name} = {v['value']:.6g} {v['unit']}")
    for name, v in report["cells"].items():
        print(f"cell {name} = {v['value']:.6g} {v['unit']}")
    result = {
        "correct": report["failed"] == 0 and not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


def self_test(_args):
    """Tiny-size pass over every workload, traced and untraced, plus one
    short full-size untraced pass for the p99 sample count."""
    binary = build()
    bench = spec()
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for w in WORKLOADS:
        for trace in (0, 1):
            expected = bench["per_layer"] if trace else bench["end_to_end"]
            r = run_binary(binary, w, 1, 0.5, trace, scale=0.05)
            tag = f"{w} trace={trace}"
            problems = validate(r, expected)
            expect(not problems, f"{tag}: every metric printed with its unit "
                   + "; ".join(problems))
            expect(r["failed"] == 0 and r["info"]["fail_frac"]["value"] == 0,
                   f"{tag}: fail_frac is 0 {r['errors']}")
            if trace:
                cov = r["metrics"]["trace.partition_coverage"]["value"]
                expect(0.95 <= cov <= 1.0,
                       f"{tag}: compile+decode+mutator+pause+runtime set-up "
                       f"cover {cov:.3f} of the traced wall time")
        r = run_binary(binary, w, 1, 1, 0, scale=1.0)
        tail = r["info"]["gc_pause_p99_tail_samples"]["value"]
        expect(r["failed"] == 0, f"{w} full size: all checks pass {r['errors']}")
        expect(tail >= 10, f"{w} full size: {tail:.0f} pause samples beyond p99")
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test(args)
    if not args.workload:
        p.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
