#!/usr/bin/env python3
"""Decodes a tfgc --flight-out recording.

The file is a 24-byte header (magic "TFGCFLR1", u32 version, u32 record
size, u64 reserved) followed by 32-byte little-endian records:

    u64 time_ns   since the recorder's construction (one clock for all
                  rings, so the whole file is one global timeline)
    u8  type      FlightEventType (support/FlightRecorder.h)
    u8  tid       0..N-1 tasks (a trace worker records on the task that
                  runs it), 254 the GC ring (handshake arms + collection
                  begin/phases/end)
    u16 reserved
    u32 arg32     e.g. the handshake epoch for park/resume/arm
    u64 arg_a     e.g. the request-to-park delay in ns
    u64 arg_b     e.g. last-parker flag, steal count

Default output: a per-handshake time-to-safepoint attribution table —
for every handshake epoch, which thread parked last (or handed the
collection off while exiting), how long after the request it arrived,
and what that thread's most recent prior event was (VM poll, TLAB
refill, GC request: the "what was it doing" column).

Modes:
    flight_report.py FILE                 attribution table + summary
    flight_report.py --check FILE         invariant check (monotone
                                          timestamps, handshake pairing,
                                          trace workers are parked tasks);
                                          exit 1 on violation
    flight_report.py --stats STATS FILE   cross-check against the run's
                                          --stats-json; exit 1 on mismatch
                                          (see cross_check_stats)
    flight_report.py --mmu [--stats STATS] FILE
                                          collections, gc ns, mutator
                                          fraction and minimum mutator
                                          utilization at 1/10/100 ms
                                          (see mmu_report); with --stats,
                                          also the cross-check, plus
                                          collections and gc ns equal to
                                          gc.collections and
                                          gc.pause_ns_total
    flight_report.py --chrome OUT FILE    multi-track Chrome trace JSON
                                          (one track per tid; view in
                                          Perfetto / chrome://tracing)

Each collection is GcBegin, one GcPhase per nonzero phase (arg32 = phase,
arg_a = its exclusive ns) and GcEnd (arg_a = the pause ns) on the GC
ring, so the recording is the run's one pause timeline. The collection
belongs to the thread that owned the pause: the last parker or handoff
thread of the handshake before it (task 0 in a sequential run). Chrome
track k + 1 is tid k, so task i is track i + 1.
"""

import bisect
import json
import struct
import sys

MAGIC = b"TFGCFLR1"
HEADER_BYTES = 24
RECORD_BYTES = 32
RECORD_FMT = "<QBBHIQQ"

GC_TID = 254

TYPE_NAMES = {
    1: "thread_start",
    2: "thread_exit",
    3: "gc_request",
    4: "safepoint_arm",
    5: "park",
    6: "resume",
    7: "pending_handoff",
    8: "tlab_refill",
    9: "gc_begin",
    10: "gc_phase",
    11: "gc_end",
    12: "trace_worker_begin",
    13: "trace_worker_end",
    14: "vm_epoch",
    15: "dropped",
}
T_START, T_EXIT, T_REQUEST, T_ARM, T_PARK, T_RESUME, T_HANDOFF, \
    T_REFILL, T_GCBEGIN, T_GCPHASE, T_GCEND, T_WBEGIN, T_WEND, \
    T_VMEPOCH, T_DROPPED = range(1, 16)

GC_PHASE_NAMES = ["root_scan", "ptr_reversal", "frame_dispatch",
                  "tg_closure_build", "copy_sweep", "remset_scan",
                  "verify"]
GC_KIND_NAMES = ["full", "minor", "major"]


class Event:
    __slots__ = ("time_ns", "type", "tid", "arg32", "arg_a", "arg_b")

    def __init__(self, time_ns, type_, tid, arg32, arg_a, arg_b):
        self.time_ns = time_ns
        self.type = type_
        self.tid = tid
        self.arg32 = arg32
        self.arg_a = arg_a
        self.arg_b = arg_b

    def type_name(self):
        return TYPE_NAMES.get(self.type, f"?{self.type}")

    def tid_name(self):
        return "gc" if self.tid == GC_TID else f"task-{self.tid}"


def load(path):
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < HEADER_BYTES or data[:8] != MAGIC:
        raise SystemExit(f"error: {path} is not a tfgc flight recording "
                         f"(bad magic)")
    version, rec_bytes = struct.unpack_from("<II", data, 8)
    if version != 1 or rec_bytes != RECORD_BYTES:
        raise SystemExit(f"error: {path}: unsupported version {version} / "
                         f"record size {rec_bytes}")
    body = len(data) - HEADER_BYTES
    if body % RECORD_BYTES:
        # An abnormal exit mid-fwrite could in principle truncate a
        # record; whole records before it are still valid.
        print(f"warning: {body % RECORD_BYTES} trailing bytes ignored "
              f"(truncated final record)", file=sys.stderr)
        body -= body % RECORD_BYTES
    events = []
    for off in range(HEADER_BYTES, HEADER_BYTES + body, RECORD_BYTES):
        t, ty, tid, _, a32, aa, ab = struct.unpack_from(RECORD_FMT, data, off)
        events.append(Event(t, ty, tid, a32, aa, ab))
    return events


def check(events):
    """Invariant check. Returns a list of violation strings."""
    errs = []
    prev = 0
    for i, e in enumerate(events):
        if e.time_ns < prev:
            errs.append(f"record {i}: time {e.time_ns} < previous {prev} "
                        "(file must be globally monotone)")
        prev = e.time_ns
        if e.type not in TYPE_NAMES:
            errs.append(f"record {i}: unknown event type {e.type}")

    dropped = sum(1 for e in events if e.type == T_DROPPED)
    if dropped:
        # Rings overwrote events between drains: pairing counts are no
        # longer complete, so only the monotonicity check is meaningful.
        print(f"note: {dropped} dropped-marker(s) present; skipping "
              "handshake pairing (recording is newest-N per ring)",
              file=sys.stderr)
        return errs

    arms = {}
    parks = {}
    resumes = {}
    handoffs = {}
    last_parks = {}
    for e in events:
        ep = e.arg32
        if e.type == T_ARM:
            arms[ep] = arms.get(ep, 0) + 1
        elif e.type == T_PARK:
            parks[ep] = parks.get(ep, 0) + 1
            if e.arg_b:
                last_parks[ep] = last_parks.get(ep, 0) + 1
        elif e.type == T_RESUME:
            resumes[ep] = resumes.get(ep, 0) + 1
        elif e.type == T_HANDOFF:
            handoffs[ep] = handoffs.get(ep, 0) + 1

    for ep, n in arms.items():
        if n != 1:
            errs.append(f"epoch {ep}: {n} arm events, want exactly 1")
        if parks.get(ep, 0) != resumes.get(ep, 0):
            errs.append(f"epoch {ep}: {parks.get(ep, 0)} parks != "
                        f"{resumes.get(ep, 0)} resumes")
        lp = last_parks.get(ep, 0)
        ho = handoffs.get(ep, 0)
        if lp + ho != 1:
            errs.append(f"epoch {ep}: {lp} last-parker(s) + {ho} "
                        "handoff(s), want exactly one pause owner")
    for ep in parks:
        if ep not in arms:
            errs.append(f"epoch {ep}: parks without an arm event")
    return errs + check_trace_workers(events)


def check_trace_workers(events):
    """Trace workers are tasks: each trace_worker_begin/end sits on a task
    tid below N (the tasks that started), inside that task's park->resume
    window of the collecting epoch, or on that epoch's pause owner."""
    errs = []
    n_tasks = len({e.tid for e in events if e.type == T_START})
    parked = {}  # tid -> epoch it is parked in
    epoch = owner = None
    for i, e in enumerate(events):
        if e.type == T_ARM:
            epoch, owner = e.arg32, None
        elif e.type == T_PARK:
            parked[e.tid] = e.arg32
            if e.arg_b:
                owner = e.tid
        elif e.type == T_HANDOFF:
            owner = e.tid
        elif e.type == T_RESUME:
            parked.pop(e.tid, None)
        elif e.type in (T_WBEGIN, T_WEND):
            if e.tid >= n_tasks:
                errs.append(f"record {i}: {e.type_name()} on tid {e.tid}, "
                            f"want a task tid below {n_tasks}")
            elif parked.get(e.tid) != epoch and e.tid != owner:
                errs.append(f"record {i}: {e.type_name()} on task "
                            f"{e.tid}, which is neither parked in epoch "
                            f"{epoch} nor its pause owner")
    return errs


def attribution(events):
    """Per-handshake attribution rows.

    Each row: epoch, owner tid, kind (park | handoff), request-to-stop
    delay ns, the slowest thread's prior activity (its most recent
    VM/TLAB/GC-request event before the park), and the per-epoch park
    delays of every participant.
    """
    last_activity = {}  # tid -> (type, time_ns)
    rows = []
    per_epoch = {}
    arm_time = {}
    for e in events:
        if e.type in (T_VMEPOCH, T_REFILL, T_REQUEST, T_START):
            last_activity[e.tid] = (e.type_name(), e.time_ns)
        elif e.type == T_ARM:
            arm_time[e.arg32] = e.time_ns
        elif e.type == T_PARK:
            per_epoch.setdefault(e.arg32, []).append((e.tid, e.arg_a))
            if e.arg_b:  # last parker: owns the pause
                act = last_activity.get(e.tid)
                rows.append({
                    "epoch": e.arg32, "owner": e.tid, "kind": "park",
                    "delay_ns": e.arg_a,
                    "prior": act[0] if act else "-",
                    "prior_gap_ns": e.time_ns - act[1] if act else None,
                })
        elif e.type == T_HANDOFF:
            act = last_activity.get(e.tid)
            rows.append({
                "epoch": e.arg32, "owner": e.tid, "kind": "handoff",
                "delay_ns": e.arg_a,
                "prior": act[0] if act else "-",
                "prior_gap_ns": e.time_ns - act[1] if act else None,
            })
    for r in rows:
        r["parks"] = sorted(per_epoch.get(r["epoch"], []))
    return rows


def collections(events):
    """Per collection: seq, kind, start/pause ns, [(phase, ns)], owner.

    A GcEnd whose GcBegin was overwritten starts at end - pause.
    """
    out = []
    owner = 0
    cur = None
    for e in events:
        if (e.type == T_PARK and e.arg_b) or e.type == T_HANDOFF:
            owner = e.tid
        elif e.type == T_GCBEGIN:
            cur = {"start": e.time_ns, "phases": []}
        elif e.type == T_GCPHASE and cur is not None:
            cur["phases"].append((e.arg32, e.arg_a))
        elif e.type == T_GCEND:
            c = cur if cur is not None else {"start": e.time_ns - e.arg_a,
                                             "phases": []}
            c.update(seq=e.arg_b, pause=e.arg_a, owner=owner,
                     kind=GC_KIND_NAMES[e.arg32] if e.arg32 < 3 else "?")
            out.append(c)
            cur = None
    return out


class PauseTimeline:
    """Sorted, non-overlapping pause spans with prefix sums, so the GC time
    inside any interval is two bisections."""

    def __init__(self, spans):
        self.starts, self.ends, self.prefix = [], [], [0]
        for start, end in spans:
            # Collections are sequential; an overlapping start is clamped.
            if self.ends and start < self.ends[-1]:
                start = self.ends[-1]
            end = max(end, start)
            self.starts.append(start)
            self.ends.append(end)
            self.prefix.append(self.prefix[-1] + end - start)

    def gc_ns_in(self, t0, t1):
        """GC time overlapping [t0, t1)."""
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_left(self.starts, t1)
        if t1 <= t0 or lo >= hi:
            return 0
        ns = self.prefix[hi] - self.prefix[lo]
        ns -= max(0, t0 - self.starts[lo])
        ns -= max(0, self.ends[hi - 1] - t1)
        return ns

    def mmu(self, window, t0, t1):
        """Minimum mutator utilization: the least mutator share of any
        window-long interval inside [t0, t1); the overall share when the
        run is shorter than the window, 1.0 with no pauses."""
        if t1 <= t0:
            return 1.0
        window = max(window, 1)
        if t1 - t0 <= window:
            return 1.0 - self.gc_ns_in(t0, t1) / (t1 - t0)
        # GC time in a sliding window is piecewise linear in its position,
        # with maxima where a window edge meets a pause edge: windows
        # starting at every pause start, ending at every pause end, and at
        # the two extremes cover them.
        last = t1 - window
        anchors = [t0, last]
        for start, end in zip(self.starts, self.ends):
            if end > t0 and start < t1:
                anchors += [start, end - window]
        worst = max(self.gc_ns_in(a, a + window)
                    for a in (min(max(a, t0), last) for a in anchors))
        return 1.0 - worst / window


MMU_WINDOWS_MS = (1, 10, 100)


def mmu_report(events):
    """Pause structure of the run, from the recording alone.

    The run window runs from the first thread_start to the last
    thread_exit (the whole recording when either is missing); each pause
    is [gc_end.time - pause, gc_end.time]. collections and gc_ns count
    every gc_end unclipped, so they equal the run's gc.collections and
    gc.pause_ns_total; the mutator fraction and MMU clip the pauses to the
    run window.
    """
    ends = [e for e in events if e.type == T_GCEND]
    starts = [e.time_ns for e in events if e.type == T_START]
    exits = [e.time_ns for e in events if e.type == T_EXIT]
    t0 = min(starts) if starts else (events[0].time_ns if events else 0)
    t1 = max(exits) if exits else (events[-1].time_ns if events else 0)
    pauses = PauseTimeline((max(0, e.time_ns - e.arg_a), e.time_ns)
                           for e in ends)
    report = {"collections": len(ends),
              "gc_ns": sum(e.arg_a for e in ends),
              "window_ns": max(0, t1 - t0),
              "mutator_fraction": (1.0 - pauses.gc_ns_in(t0, t1) / (t1 - t0)
                                   if t1 > t0 else 1.0)}
    for ms in MMU_WINDOWS_MS:
        report[f"mmu_{ms}ms"] = pauses.mmu(ms * 1_000_000, t0, t1)
    return report


def cross_check_mmu(report, stats_path):
    """collections and gc_ns equal the run's gc.collections and
    gc.pause_ns_total (skipped under --verify: the recorded pause also
    spans the verify re-trace, which the pause counters leave out)."""
    with open(stats_path) as f:
        counters = json.load(f).get("counters", {})
    if counters.get("gc.verify_passes", 0):
        print("note: the recorded pauses include verify passes; gc ns "
              "cross-check skipped", file=sys.stderr)
        return []
    errs = []
    for field, key in (("collections", "gc.collections"),
                       ("gc_ns", "gc.pause_ns_total")):
        if report[field] != counters.get(key):
            errs.append(f"mmu {field}={report[field]}, stats report "
                        f"{key}={counters.get(key)}")
    return errs


def print_report(events):
    n_by_type = {}
    tids = set()
    for e in events:
        n_by_type[e.type_name()] = n_by_type.get(e.type_name(), 0) + 1
        tids.add(e.tid)
    span_ms = (events[-1].time_ns - events[0].time_ns) / 1e6 if events else 0
    print(f"{len(events)} records over {span_ms:.1f} ms, "
          f"{len(tids)} timelines")
    for name in sorted(n_by_type):
        print(f"  {n_by_type[name]:8d}  {name}")
    rows = attribution(events)
    if not rows:
        print("\nno handshakes recorded (sequential run, or no "
              "collection was needed)")
        return
    print("\ntime-to-safepoint attribution "
          "(slowest = the thread the world waited for):")
    print(f"  {'epoch':>5}  {'stop-delay':>12}  {'slowest':>8}  "
          f"{'via':>8}  {'prior activity':>20}  per-task park delays")
    for r in rows:
        prior = r["prior"]
        if r["prior_gap_ns"] is not None:
            prior += f" (-{r['prior_gap_ns'] / 1e3:.0f}us)"
        parks = ", ".join(f"t{t}:{d / 1e3:.0f}us" for t, d in r["parks"])
        print(f"  {r['epoch']:5d}  {r['delay_ns'] / 1e3:10.0f}us  "
              f"task-{r['owner']:<3}  {r['kind']:>8}  {prior:>20}  "
              f"[{parks}]")


def cross_check_stats(events, stats_path):
    """Checks the recording against the run's --stats-json.

    The collector is exercised (collections > 0) and the GC ring dropped
    nothing; one collection per stats `collections`, with the minor/major
    split; the GcPhase records cover the pause histogram's sum within
    [0.95, 1.0001]; census objects == gc.objects_visited (verify off);
    under --threads=N tasks are tracks 1..N and every collection is on
    one of them; park counts per task == task.<i>.world_stop_delays
    (skipped when a task ring dropped records).
    """
    with open(stats_path) as f:
        stats = json.load(f)
    counters = stats.get("counters", {})
    n = stats["collections"]
    if n == 0:
        return [f"{stats_path} reports zero collections — the run never "
                "exercised the collector (heap too large for the "
                "workload?)"]
    errs = []
    gc_dropped = sum(e.arg_a for e in events
                     if e.type == T_DROPPED and e.tid == GC_TID)
    if gc_dropped:
        errs.append(f"GC ring dropped {gc_dropped} record(s): collections "
                    "are missing from the recording")
    colls = collections(events)
    begins = sum(1 for e in events if e.type == T_GCBEGIN)
    if len(colls) != n or begins != n:
        errs.append(f"{begins} gc_begin / {len(colls)} gc_end records, "
                    f"stats report {n} collections")
    for kind in ("minor", "major"):
        key = "collections_" + kind
        got = sum(1 for c in colls if c["kind"] == kind)
        if key in stats and got != stats[key]:
            errs.append(f"{got} {kind} collections recorded, stats report "
                        f"{key}={stats[key]}")

    phase_ns = sum(ns for c in colls for _, ns in c["phases"])
    pause_ns = stats["pause_histogram"]["sum"]
    ratio = phase_ns / pause_ns if pause_ns else 0.0
    if not 0.95 <= ratio <= 1.0001:
        errs.append(f"phase records cover {ratio:.2%} of the pause "
                    f"({phase_ns} / {pause_ns} ns), want within 5%")

    census = sum(k["objects"] for k in stats["census_totals"].values())
    visited = counters.get("gc.objects_visited", 0)
    if counters.get("gc.verify_passes", 0):
        print("note: verify re-traces count toward gc.objects_visited; "
              "census cross-check skipped", file=sys.stderr)
    elif census != visited:
        errs.append(f"census objects {census} != gc.objects_visited "
                    f"{visited}")

    spawned = counters.get("task.spawned", 0)
    if spawned >= 2:
        tracks = sorted({e.tid + 1 for e in events if e.tid != GC_TID})
        if tracks != list(range(1, spawned + 1)):
            errs.append(f"task tracks {tracks}, want 1..{spawned} "
                        f"(task.spawned={spawned})")
        bad = sorted({c["owner"] + 1 for c in colls
                      if not 1 <= c["owner"] + 1 <= spawned})
        if bad:
            errs.append(f"collections on tracks {bad}, want 1..{spawned}")

    if any(e.type == T_DROPPED and e.tid != GC_TID for e in events):
        print("note: a task ring dropped records; skipping the park "
              "cross-check", file=sys.stderr)
    else:
        parks = {}
        for e in events:
            if e.type == T_PARK:
                parks[e.tid] = parks.get(e.tid, 0) + 1
        for key, want in counters.items():
            if not key.startswith("task.") or \
                    not key.endswith(".world_stop_delays"):
                continue
            tid = int(key.split(".")[1])
            if parks.get(tid, 0) != want:
                errs.append(f"task {tid}: {parks.get(tid, 0)} park events, "
                            f"stats report {key}={want}")
    if not errs:
        print(f"stats cross-check: collections={n} coverage={ratio:.4f} "
              f"census={census}" +
              (f" tracks={spawned}" if spawned >= 2 else ""))
    return errs


PHASE_SPAN_NAMES = {"full": "gc.collection", "minor": "gc.minor",
                    "major": "gc.major"}


def chrome_trace(events, out_path):
    """One Chrome-trace track per tid (track = tid + 1): a span per
    collection on its owner's track with the phases laid out in sequence
    inside it, spans for parks and trace workers, instants for the
    rest."""
    out = []
    for tid in sorted({e.tid for e in events}):
        name = next(e for e in events if e.tid == tid).tid_name()
        out.append({"name": "thread_name", "ph": "M", "pid": 1,
                    "tid": tid + 1, "args": {"name": name}})
    for c in collections(events):
        track = c["owner"] + 1
        out.append({"name": PHASE_SPAN_NAMES.get(c["kind"], "gc.?"),
                    "cat": "gc", "ph": "X", "ts": c["start"] / 1e3,
                    "dur": c["pause"] / 1e3, "pid": 1, "tid": track,
                    "args": {"seq": c["seq"], "kind": c["kind"]}})
        at = c["start"]
        for phase, ns in c["phases"]:
            name = GC_PHASE_NAMES[phase] if phase < len(GC_PHASE_NAMES) \
                else f"phase{phase}"
            out.append({"name": name, "cat": "gc.phase", "ph": "X",
                        "ts": at / 1e3, "dur": ns / 1e3, "pid": 1,
                        "tid": track})
            at += ns
    open_park = {}   # tid -> park event
    open_worker = {}
    for e in events:
        if e.type in (T_GCBEGIN, T_GCPHASE, T_GCEND):
            continue  # Drawn as collection spans above.
        if e.type == T_PARK:
            open_park[e.tid] = e
        elif e.type == T_RESUME and e.tid in open_park:
            p = open_park.pop(e.tid)
            out.append({"name": "parked", "cat": "safepoint", "ph": "X",
                        "ts": p.time_ns / 1e3,
                        "dur": (e.time_ns - p.time_ns) / 1e3,
                        "pid": 1, "tid": e.tid + 1,
                        "args": {"epoch": p.arg32,
                                 "park_delay_ns": p.arg_a,
                                 "last_parker": bool(p.arg_b)}})
        elif e.type == T_WBEGIN:
            open_worker[e.tid] = e
        elif e.type == T_WEND and e.tid in open_worker:
            b = open_worker.pop(e.tid)
            out.append({"name": "trace_worker", "cat": "gc", "ph": "X",
                        "ts": b.time_ns / 1e3,
                        "dur": (e.time_ns - b.time_ns) / 1e3,
                        "pid": 1, "tid": e.tid + 1,
                        "args": {"steals": e.arg_a}})
        else:
            out.append({"name": e.type_name(), "cat": "flight", "ph": "i",
                        "ts": e.time_ns / 1e3, "s": "t", "pid": 1,
                        "tid": e.tid + 1,
                        "args": {"arg32": e.arg32, "a": e.arg_a,
                                 "b": e.arg_b}})
    with open(out_path, "w") as f:
        json.dump({"displayTimeUnit": "ns", "traceEvents": out}, f)
    print(f"wrote {len(out)} trace events to {out_path}")


def main():
    args = sys.argv[1:]
    mode = "report"
    mmu = stats_path = out_path = None
    if args and args[0] == "--mmu":
        mmu, args = True, args[1:]
    if args and args[0] == "--check" and not mmu:
        mode = "check"
        args = args[1:]
    elif args and args[0] == "--stats":
        mode = "stats"
        stats_path, args = args[1], args[2:]
    elif args and args[0] == "--chrome" and not mmu:
        mode = "chrome"
        out_path, args = args[1], args[2:]
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    events = load(args[0])

    if mode == "check":
        errs = check(events)
        for e in errs:
            print(f"error: {e}", file=sys.stderr)
        if errs:
            return 1
        n_hs = len({e.arg32 for e in events if e.type == T_ARM})
        print(f"ok: {len(events)} records, {n_hs} handshakes, "
              "monotone + paired")
        return 0
    if mode == "chrome":
        chrome_trace(events, out_path)
        return 0
    errs = []
    if mmu:
        report = mmu_report(events)
        print("mmu: " + " ".join(
            f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in report.items()))
        if stats_path:
            errs += cross_check_mmu(report, stats_path)
    if stats_path:
        errs += cross_check_stats(events, stats_path)
    elif not mmu:
        print_report(events)
    for e in errs:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errs else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)  # report piped into head/less; not an error
