#!/usr/bin/env python3
"""Tests tools/flight_report.py --mmu, the one MMU computation.

Synthetic mode runs one CASE: it writes small flight recordings with
known pause spans and checks the window math (CASES: no pauses, GC time
clipped to the run window, a single pause, periodic pauses, a worst
window aligned with pause edges, an overlapping pause start clamped, the
pause sum and collection count).

Real mode records a run of PROGRAM under copying, marksweep and
generational with `tfgc --flight-out --stats-json` and requires
`--mmu --stats` to pass (collections and gc ns equal gc.collections and
gc.pause_ns_total) with MMU(1ms) <= MMU(10ms) <= MMU(100ms) <= mutator
fraction <= 1.

Usage: flight_mmu_test.py FLIGHT_REPORT CASE
       flight_mmu_test.py FLIGHT_REPORT --real TFGC PROGRAM
"""

import os
import struct
import subprocess
import sys
import tempfile

MS = 1_000_000  # ns
T_START, T_EXIT, T_GCBEGIN, T_GCEND = 1, 2, 9, 11
GC_TID = 254
EPS = 1e-6  # --mmu prints six decimals


def recording(path, run, pauses):
    """Writes a recording whose run window is \\p run (None: no thread
    records) and whose collections are the (start, end) \\p pauses."""
    recs = []
    if run:
        recs += [(run[0], T_START, 0, 0, 0, 0), (run[1], T_EXIT, 0, 0, 0, 0)]
    for seq, (start, end) in enumerate(pauses):
        recs += [(start, T_GCBEGIN, GC_TID, 0, 0, seq),
                 (end, T_GCEND, GC_TID, 0, end - start, seq)]
    recs.sort(key=lambda r: r[0])
    with open(path, "wb") as f:
        f.write(b"TFGCFLR1" + struct.pack("<IIQ", 1, 32, 0))
        for t, ty, tid, a32, aa, ab in recs:
            f.write(struct.pack("<QBBHIQQ", t, ty, tid, 0, a32, aa, ab))


def mmu(tool, *args):
    out = subprocess.run([sys.executable, tool, "--mmu", *args],
                         capture_output=True, text=True)
    if out.returncode:
        raise AssertionError(f"--mmu {' '.join(args)} exited "
                             f"{out.returncode}: {out.stderr}")
    line = next(l for l in out.stdout.splitlines() if l.startswith("mmu: "))
    return {k: float(v) for k, v in
            (kv.split("=") for kv in line[len("mmu: "):].split())}


def expect(report, **want):
    for key, value in want.items():
        assert abs(report[key] - value) <= EPS, (
            f"{key} = {report[key]}, want {value} (report {report})")


def recorded(tool, tmp, run_ms, pauses_ms):
    """Records a run given in ms and returns its --mmu report."""
    ns = lambda v: [round(x * MS) for x in v]  # noqa: E731
    path = os.path.join(tmp, "synthetic.bin")
    recording(path, run_ms and ns(run_ms), [ns(p) for p in pauses_ms])
    return mmu(tool, path)


def no_pauses_is_full_utilization(run):
    expect(run((0, 100), []), collections=0, gc_ns=0, mutator_fraction=1.0,
           mmu_1ms=1.0, mmu_10ms=1.0, mmu_100ms=1.0)


def gc_time_clipping(run):
    # GC time is clipped to the run window; collections and gc_ns count
    # every pause whole. Pauses [10,12) and [20,21): full containment,
    # partial overlap on each side, no overlap.
    pauses = [(10, 12), (20, 21)]
    expect(run((0, 100), pauses), collections=2, gc_ns=3 * MS,
           mutator_fraction=0.97)
    expect(run((11, 20.5), pauses), gc_ns=3 * MS,
           mutator_fraction=1 - 1.5 / 9.5, mmu_1ms=0.0,
           mmu_10ms=1 - 1.5 / 9.5)
    expect(run((12, 20), pauses), gc_ns=3 * MS, mutator_fraction=1.0,
           mmu_1ms=1.0)


def single_pause_windows(run):
    # One 4 ms pause [20,24) in a 40 ms run: a 1 ms window fits inside it,
    # the worst 10 ms window holds all of it, and windows longer than the
    # run fall back to the overall share.
    expect(run((0, 40), [(20, 24)]), mmu_1ms=0.0, mmu_10ms=0.6,
           mmu_100ms=0.9, mutator_fraction=0.9)


def periodic_pauses(run):
    # A 1 ms pause every 10 ms.
    expect(run((0, 100), [(9 + 10 * i, 10 + 10 * i) for i in range(10)]),
           collections=10, mmu_1ms=0.0, mmu_10ms=0.9, mmu_100ms=0.9)


def worst_window_aligns_with_pause_edges(run):
    # Two pauses close together: the worst window starts at the first
    # pause's start and ends at the second's end.
    expect(run((0, 250), [(25, 27.5), (32.5, 35)]), mmu_10ms=0.5)
    expect(run((0, 125), [(12.5, 13.75), (16.25, 17.5)]), mmu_10ms=0.75)


def overlapping_start_is_clamped(run):
    # The later start is clamped to the earlier end, so [10,20) + [15,25)
    # is 15 ms of GC time (gc_ns still sums the recorded pauses, as
    # gc.pause_ns_total does).
    expect(run((0, 30), [(10, 20), (15, 25)]), collections=2,
           gc_ns=20 * MS, mutator_fraction=0.5, mmu_10ms=0.0,
           mmu_100ms=0.5)


def pause_sum_and_collection_count(run):
    # Without thread records the window is the whole recording.
    expect(run((0, 12), [(5, 6), (10, 12)]), collections=2, gc_ns=3 * MS,
           mutator_fraction=0.75)
    expect(run(None, [(5, 6), (10, 12)]), collections=2, gc_ns=3 * MS,
           mutator_fraction=1 - 3 / 7)


# Keyed by the CamelCase ctest name (FlightMmu.<Case>).
CASES = {"".join(w.title() for w in f.__name__.split("_")): f for f in (
    no_pauses_is_full_utilization, gc_time_clipping, single_pause_windows,
    periodic_pauses, worst_window_aligns_with_pause_edges,
    overlapping_start_is_clamped, pause_sum_and_collection_count)}


def real(tool, tfgc, program, tmp):
    for algo in ("copying", "marksweep", "generational"):
        flight = os.path.join(tmp, algo + ".bin")
        stats = os.path.join(tmp, algo + ".json")
        subprocess.run([tfgc, "--algo=" + algo, "--heap=16384",
                        "--flight-out=" + flight, "--stats-json=" + stats,
                        program], check=True, stdout=subprocess.DEVNULL)
        r = mmu(tool, "--stats", stats, flight)
        assert r["collections"] > 0, f"{algo}: no collections: {r}"
        chain = [r["mmu_1ms"], r["mmu_10ms"], r["mmu_100ms"],
                 r["mutator_fraction"], 1.0]
        assert 0.0 <= chain[0] and all(
            a <= b + EPS for a, b in zip(chain, chain[1:])), (
            f"{algo}: want MMU(1) <= MMU(10) <= MMU(100) <= mutator "
            f"fraction <= 1: {r}")
        print(f"{algo}: ok {r}")


def main():
    args = sys.argv[1:]
    real_mode = len(args) == 4 and args[1] == "--real"
    if not real_mode and (len(args) != 2 or args[1] not in CASES):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        if real_mode:
            real(args[0], args[2], args[3], tmp)
        else:
            CASES[args[1]](lambda *a: recorded(args[0], tmp, *a))
            print(f"{args[1]}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
