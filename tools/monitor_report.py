#!/usr/bin/env python3
"""Renders or checks a tfgc --monitor-out JSONL stream.

The stream is one JSON record per line: a `header` record (schema,
sample period, heartbeat period), zero or more `heartbeat` records
(counter snapshot, allocation/barrier/remset rates over the elapsed
bucket, per-task steps and samples), and a final `summary` record (flat
and caller-attributed sample profiles, opcode-class mix). The summary is
flushed through the same abnormal-exit path as the other diagnostic
artifacts, so a failing run still ends with one. Pause structure (MMU,
mutator fraction) comes from the flight recording:
tools/flight_report.py --mmu.

Default mode renders a human-readable report. With --check, asserts the
stream's invariants instead (exit 1 on violation):

  * header first, exactly one summary, every line schema-versioned JSON;
  * sample count matches step count within tolerance of the sample
    period (the fuel countdown takes exactly one sample per period);
  * heartbeat cadence: consecutive heartbeats are at least half the
    configured period apart, with monotonic timestamps and sequence
    numbers, and the summary's heartbeat count matches the stream.

Usage: monitor_report.py [--check] STREAM.jsonl
"""

import json
import sys

SCHEMA = 2


def load(path):
    with open(path) as f:
        lines = [(n, s.strip()) for n, s in enumerate(f, 1) if s.strip()]
    records = []
    truncated = False
    last = lines[-1][0] if lines else 0
    for lineno, line in lines:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            if lineno == last:
                # A run killed mid-write (crash, SIGKILL, full disk) leaves
                # a partial final record; the preceding stream is intact and
                # still worth checking, so report rather than fail.
                print(f"{path}:{lineno}: trailing partial record "
                      f"({len(line)} bytes, ignored): {e}", file=sys.stderr)
                truncated = True
                break
            raise AssertionError(f"{path}:{lineno}: invalid JSON: {e}")
        assert isinstance(rec, dict) and "type" in rec, (
            f"{path}:{lineno}: record has no type")
        records.append(rec)
    assert records, f"{path}: empty stream"
    return records, truncated


def split(records, truncated=False):
    header = records[0]
    assert header["type"] == "header", "first record is not the header"
    assert header["schema"] == SCHEMA, f"unknown schema {header['schema']}"
    assert header["tool"] == "tfgc-monitor", "not a tfgc-monitor stream"
    summaries = [r for r in records if r["type"] == "summary"]
    heartbeats = [r for r in records if r["type"] == "heartbeat"]
    if truncated and not summaries:
        # The dropped partial was (or preceded) the summary; check what
        # survives rather than demanding a record the writer never finished.
        return header, heartbeats, None
    assert len(summaries) == 1, f"want exactly 1 summary, got {len(summaries)}"
    assert records[-1]["type"] == "summary", "summary is not the last record"
    return header, heartbeats, summaries[0]


def check(path):
    records, truncated = load(path)
    header, heartbeats, summary = split(records, truncated)
    if summary is None:
        check_heartbeats(header, heartbeats, summary=None)
        print("ok (truncated stream: header and "
              f"{len(heartbeats)} heartbeats checked, no summary)")
        return 0
    assert summary["schema"] == SCHEMA

    # The fuel countdown takes exactly one sample per period per task;
    # allow one period of slack per task plus 2% for blocked-step rewinds.
    period = summary["sample_period_steps"]
    steps = summary["steps"]
    samples = summary["samples"]
    ntasks = max(1, len(summary.get("tasks", [])))
    tolerance = period * (ntasks + 1) + 0.02 * steps
    drift = abs(samples * period - steps)
    print(f"steps={steps} samples={samples} period={period} drift={drift}")
    assert drift <= tolerance, (
        f"samples*period={samples * period} vs steps={steps}: "
        f"drift {drift} exceeds tolerance {tolerance:.0f}")

    check_heartbeats(header, heartbeats, summary)
    print("ok")
    return 0


def check_heartbeats(header, heartbeats, summary):
    if summary is not None:
        assert summary["heartbeats"] == len(heartbeats), (
            f"summary says {summary['heartbeats']} heartbeats, "
            f"stream has {len(heartbeats)}")
    period_ns = header["heartbeat_period_ms"] * 1e6
    last_t, last_seq = None, None
    for hb in heartbeats:
        if last_t is not None:
            assert hb["t_ns"] > last_t, "heartbeat timestamps not monotonic"
            assert hb["seq"] == last_seq + 1, "heartbeat seq not contiguous"
            # Heartbeats only fire from sample points at least a full
            # period after the previous one; clock granularity gets a
            # factor-of-two pardon.
            gap = hb["t_ns"] - last_t
            assert gap >= period_ns / 2, (
                f"heartbeat gap {gap}ns below half the period {period_ns}ns")
        last_t, last_seq = hb["t_ns"], hb["seq"]
    print(f"heartbeats={len(heartbeats)} ok")


def render(path):
    records, truncated = load(path)
    header, heartbeats, summary = split(records, truncated)
    if summary is None:
        print(f"monitor stream: {path}  (truncated: no summary)")
        print(f"  heartbeats    {len(heartbeats)}")
        return 0
    label = summary.get("label", "")
    print(f"monitor stream: {path}  {label}")
    print(f"  steps         {summary['steps']:>10}  samples "
          f"{summary['samples']} (every {summary['sample_period_steps']})")

    if heartbeats:
        alloc = [h["alloc_rate_bytes_per_ms"] for h in heartbeats]
        print(f"  heartbeats    {len(heartbeats)} every "
              f"{header['heartbeat_period_ms']} ms; alloc rate "
              f"min/median/max {min(alloc):.0f}/"
              f"{sorted(alloc)[len(alloc) // 2]:.0f}/{max(alloc):.0f} "
              "bytes/ms")
        barrier = [h["barrier_rate_per_ms"] for h in heartbeats]
        if max(barrier) > 0:
            print(f"  barrier rate  max {max(barrier):.0f} ops/ms, remset "
                  f"{heartbeats[-1]['remset_entries']} entries")

    print("  op classes   ", " ".join(
        f"{k}={v}" for k, v in summary["op_classes"].items() if v))
    print("  flat profile")
    total = max(1, summary["samples"])
    for row in summary["profile_flat"][:10]:
        print(f"    {row['samples']:>8} ({row['samples'] / total:6.2%})  "
              f"{row['func']}")
    print("  caller-attributed")
    for row in summary["profile_callers"][:10]:
        print(f"    {row['samples']:>8}  {row['caller']} -> {row['func']}")
    tasks = summary.get("tasks", [])
    if len(tasks) > 1:
        print("  tasks")
        for t in tasks:
            print(f"    task {t['task']}: steps={t['steps']} "
                  f"samples={t['samples']}")
    return 0


def main():
    args = sys.argv[1:]
    do_check = "--check" in args
    args = [a for a in args if a != "--check"]
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    return check(args[0]) if do_check else render(args[0])


if __name__ == "__main__":
    sys.exit(main())
