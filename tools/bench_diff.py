#!/usr/bin/env python3
"""Diff a fresh run_benches.sh output against committed BENCH_*.json.

The committed BENCH_*.json files are the repo's perf trajectory. Their
`table_runs` counters come from the deterministic VM/GC stat domains, so
on the same source they are bit-identical run to run — any difference is
a real behavior change that slipped past the tests (an extra collection,
a changed visit count, a lost superinstruction). Timings, by contrast,
are machine-dependent: they are reported, never failed on.

Rows of threaded runs (`threads` >= 2) are the exception: how the OS
interleaves the mutators decides when each collection runs and what it
finds live, so their GC-side counters differ run to run. Those counters
(SCHED_DEPENDENT) are checked against the safepoint handshake's invariant
instead — every GC request stops the world exactly once, in its own
handshake epoch — and every other counter of the row stays bit-exact.

Usage:
  tools/bench_diff.py FRESH_DIR [--baseline DIR] [--bench NAME]...
                      [--warn-ratio R]

  FRESH_DIR      directory holding the freshly generated BENCH_*.json
                 (e.g. the target dir passed to `run_benches.sh` plus a
                 copy step, or just the repo root after rerunning)
  --baseline     directory with the committed baselines (default: the
                 repo root, i.e. this script's parent's parent)
  --bench NAME   restrict to BENCH_<NAME>.json (repeatable; default all
                 baselines present)
  --warn-ratio R warn when a timing moved by more than R x (default 1.5)

Documents written by bench/BenchUtil.h carry a `build` block (git sha,
build type, sanitizer) and the host's 1-minute load average; a baseline
and a fresh file of different build types get a timing warning.

Exit status: 1 on counter drift (or a missing/extra run, or two runs of
one file sharing a run key), 0 otherwise — timing warnings never fail
the diff.

Typical CI wiring:
  tools/run_benches.sh build && mkdir fresh && mv BENCH_*.json fresh/ \
      && git checkout -- 'BENCH_*.json' \
      && tools/bench_diff.py fresh
"""

import argparse
import glob
import json
import os
import re
import sys

# Counters whose values are derived from wall-clock time: identical
# behavior produces different numbers every run, so they are excluded
# from the bit-identical contract.
TIME_COUNTER_MARKERS = ("_ns", "pause_ns", "wall_ms")


# Counters of a threaded row that depend on the thread interleaving
# (module docstring). Per-task ones are matched by PER_TASK_SCHED.
SCHED_DEPENDENT = frozenset((
    "gc.census_data_objects", "gc.census_data_words", "gc.collections",
    "gc.compiled_actions", "gc.frames_traced", "gc.heap_growths",
    "gc.major_collections", "gc.minor_collections",
    "gc.nursery_resident_objects", "gc.objects_visited",
    "gc.parallel_traces", "gc.promoted_objects", "gc.promoted_words",
    "gc.ptr_reversal_steps", "gc.slots_traced", "gc.stack_steals",
    "gc.words_visited", "gc.young_dead_objects",
    "heap.bytes_allocated_total", "heap.capacity_bytes", "heap.used_bytes",
    "sched.handshake_epochs", "sched.last_parker_task",
    "task.gc_requests", "task.suspend_checks", "task.world_stops",
))
PER_TASK_SCHED = re.compile(r"task\.\d+\.(tlab_refills|world_stop_delays)")

# The handshake invariant of a threaded row: these are equal.
HANDSHAKE_COUNTERS = ("task.gc_requests", "task.world_stops",
                      "sched.handshake_epochs")


def is_time_counter(name):
    return any(m in name for m in TIME_COUNTER_MARKERS)


def is_sched_dependent(name):
    return name in SCHED_DEPENDENT or bool(PER_TASK_SCHED.fullmatch(name))


def run_key(run):
    return (
        run.get("workload", ""),
        run.get("strategy", ""),
        run.get("algorithm", ""),
        run.get("heap_bytes", 0),
        run.get("nursery_bytes", 0),
        run.get("threads", 0),
    )


def fmt_key(key):
    wl, strat, algo, heap, nursery, threads = key
    s = "%s/%s/%s heap=%d" % (wl, strat, algo, heap)
    if nursery:
        s += " nursery=%d" % nursery
    if threads:
        s += " threads=%d" % threads
    return s


def handshake_drift(name, key, counters):
    """The handshake invariant of one threaded row, as drift lines."""
    values = [counters.get(c) for c in HANDSHAKE_COUNTERS]
    if None in values or len(set(values)) != 1:
        return ["%s: %s: handshake invariant broken: %s" %
                (name, fmt_key(key),
                 ", ".join("%s=%s" % kv
                           for kv in zip(HANDSHAKE_COUNTERS, values)))]
    return []


def keyed_runs(name, which, doc, drift):
    """table_runs by run key; a key held by two rows is drift (one row
    would silently shadow the other)."""
    runs = {}
    for r in doc.get("table_runs", []):
        key = run_key(r)
        if key in runs:
            drift.append("%s: %s has two runs keyed %s" %
                         (name, which, fmt_key(key)))
        runs[key] = r
    return runs


def diff_table_runs(name, base, fresh):
    """Returns (drift_lines, warn_lines) for one bench's table_runs."""
    drift, warns = [], []
    base_runs = keyed_runs(name, "baseline", base, drift)
    fresh_runs = keyed_runs(name, "fresh output", fresh, drift)
    for key in sorted(set(base_runs) | set(fresh_runs)):
        if key not in fresh_runs:
            drift.append("%s: run missing from fresh output: %s" %
                         (name, fmt_key(key)))
            continue
        if key not in base_runs:
            drift.append("%s: run not in baseline (new?): %s" %
                         (name, fmt_key(key)))
            continue
        bc = base_runs[key].get("counters", {})
        fc = fresh_runs[key].get("counters", {})
        threaded = key[-1] >= 2
        if threaded:
            drift.extend(handshake_drift(name, key, fc))
        for counter in sorted(set(bc) | set(fc)):
            if is_time_counter(counter):
                continue
            if threaded and is_sched_dependent(counter):
                continue
            bv, fv = bc.get(counter), fc.get(counter)
            if bv != fv:
                drift.append("%s: %s: %s: %s -> %s" %
                             (name, fmt_key(key), counter, bv, fv))
    return drift, warns


def build_type_warning(name, base, fresh):
    """Timings of two different tfgc build types are not comparable. Only
    documents that carry the `build` block (bench/BenchUtil.h) can say."""
    bt = (base.get("build") or {}).get("build_type")
    ft = (fresh.get("build") or {}).get("build_type")
    if bt is not None and ft is not None and bt != ft:
        return ["%s: baseline built as %s, fresh as %s: timings are not "
                "comparable" % (name, bt or "(none)", ft or "(none)")]
    return []


def diff_timings(name, base, fresh, warn_ratio):
    """Warn-only comparison of google-benchmark real_time medians."""
    warns = []
    # A bench without registered timings writes "benchmark": null.
    base_bms = {b["name"]: b
                for b in (base.get("benchmark") or {}).get("benchmarks", [])}
    fresh_bms = {b["name"]: b
                 for b in (fresh.get("benchmark") or {}).get("benchmarks", [])}
    for bm in sorted(set(base_bms) & set(fresh_bms)):
        bt = base_bms[bm].get("real_time", 0.0)
        ft = fresh_bms[bm].get("real_time", 0.0)
        if not bt or not ft:
            continue
        ratio = ft / bt
        if ratio > warn_ratio or ratio < 1.0 / warn_ratio:
            warns.append("%s: %s: real_time %.3fms -> %.3fms (%.2fx)" %
                         (name, bm, bt / 1e6, ft / 1e6, ratio))
    return warns


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("fresh_dir")
    ap.add_argument("--baseline",
                    default=os.path.dirname(
                        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--bench", action="append", default=[])
    ap.add_argument("--warn-ratio", type=float, default=1.5)
    args = ap.parse_args()

    if args.bench:
        names = ["BENCH_%s.json" % n for n in args.bench]
    else:
        names = sorted(os.path.basename(p) for p in
                       glob.glob(os.path.join(args.baseline, "BENCH_*.json")))
    if not names:
        print("bench_diff: no BENCH_*.json baselines in %s" % args.baseline,
              file=sys.stderr)
        return 1

    all_drift, all_warns, compared = [], [], 0
    for name in names:
        base_path = os.path.join(args.baseline, name)
        fresh_path = os.path.join(args.fresh_dir, name)
        if not os.path.exists(base_path):
            all_drift.append("%s: baseline missing at %s" % (name, base_path))
            continue
        if not os.path.exists(fresh_path):
            all_drift.append("%s: fresh output missing at %s (bench not run?)"
                             % (name, fresh_path))
            continue
        with open(base_path) as f:
            base = json.load(f)
        with open(fresh_path) as f:
            fresh = json.load(f)
        compared += 1
        drift, _ = diff_table_runs(name, base, fresh)
        all_drift.extend(drift)
        all_warns.extend(build_type_warning(name, base, fresh))
        all_warns.extend(diff_timings(name, base, fresh, args.warn_ratio))

    for w in all_warns:
        print("warn (timing): %s" % w)
    for d in all_drift:
        print("DRIFT: %s" % d)
    if all_drift:
        print("\nbench_diff: FAIL — %d counter drift(s) across %d bench(es); "
              "counters are deterministic, so either fix the regression or "
              "re-run tools/run_benches.sh and commit the new baselines with "
              "the change that moved them" % (len(all_drift), compared))
        return 1
    print("bench_diff: OK — %d bench(es), counters bit-identical%s" %
          (compared,
           ", %d timing warning(s)" % len(all_warns) if all_warns else ""))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)
