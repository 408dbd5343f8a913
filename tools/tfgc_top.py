#!/usr/bin/env python3
"""Live top-style view of a running tfgc --serve=PORT process.

Polls http://HOST:PORT/metrics and renders the latest epoch: heap
occupancy, collection and pause totals, and mutator throughput (epoch-
over-epoch rates for steps, allocation, barriers). Rates need two polls;
the first frame shows totals only.

Usage: tfgc_top.py [--interval SECS] [--once] [HOST:]PORT

  --interval SECS   poll period (default 1.0)
  --once            print a single frame and exit (no screen clearing);
                    also the mode CI uses to probe a live run

Exit: 0 on a clean ^C or --once success, 1 if the first poll fails.
Once connected, a poll error (run ended, linger expired) prints the last
frame's totals and exits 0.
"""

import sys
import time
import urllib.error
import urllib.request

from check_metrics import parse as parse_exposition
from heap_report import fmt_bytes


def fetch(url):
    with urllib.request.urlopen(url, timeout=5) as r:
        return r.read().decode()


def parse(text):
    """Samples by name, plus the run label from tfgc_info's labels."""
    _, samples, labelstrs = parse_exposition(text, "/metrics")
    info = labelstrs.get("tfgc_info", "")
    lo = info.find('label="')
    return samples, info[lo + 7:info.find('"', lo + 7)] if lo >= 0 else ""


def fmt_ns(n):
    if n >= 1e9:
        return f"{n / 1e9:.2f} s"
    if n >= 1e6:
        return f"{n / 1e6:.2f} ms"
    if n >= 1e3:
        return f"{n / 1e3:.1f} us"
    return f"{n} ns"


def rate(cur, prev, key, dt):
    if prev is None or dt <= 0 or key not in cur or key not in prev:
        return None
    return (cur[key] - prev[key]) / dt


def frame(url, cur, label, prev, dt):
    lines = []
    seq = cur.get("tfgc_epoch_seq", 0)
    t_ms = cur.get("tfgc_epoch_time_ns", 0) / 1e6
    lines.append(f"tfgc {url}  {label}  epoch {seq} @ {t_ms:.1f} ms")

    used = cur.get("tfgc_heap_used_bytes", 0)
    cap = cur.get("tfgc_heap_capacity_bytes", 0)
    pct = 100.0 * used / cap if cap else 0.0
    lines.append(f"  heap       {fmt_bytes(used)} / {fmt_bytes(cap)} "
                 f"({pct:.1f}%)  allocated "
                 f"{fmt_bytes(cur.get('tfgc_heap_bytes_allocated_total', 0))}")

    cols = cur.get("tfgc_gc_collections", 0)
    minor = cur.get("tfgc_gc_minor_collections", 0)
    pause = cur.get("tfgc_gc_pause_ns_total", 0)
    pmax = cur.get("tfgc_gc_pause_ns_max", 0)
    lines.append(f"  gc         {cols} collections ({minor} minor)  pause "
                 f"total {fmt_ns(pause)}  max {fmt_ns(pmax)}")

    steps = cur.get("tfgc_vm_steps", 0)
    srate = rate(cur, prev, "tfgc_vm_steps", dt)
    arate = rate(cur, prev, "tfgc_heap_bytes_allocated_total", dt)
    brate = rate(cur, prev, "tfgc_gc_barrier_ops", dt)
    mut = f"  mutator    {steps} steps"
    if srate is not None:
        mut += f"  {srate / 1e6:.2f} Msteps/s"
    if arate is not None:
        mut += f"  {fmt_bytes(arate)}/s alloc"
    if brate is not None and cur.get("tfgc_gc_barrier_ops", 0):
        mut += f"  {brate:.0f} barriers/s"
    lines.append(mut)

    # Per-task shard columns (--threads runs publish one group per task
    # at every safepoint fold): steps + rate, TLAB allocation, and the
    # p99 time-to-safepoint — the straggler column. The task that
    # completed the most recent rendezvous (everyone else was already
    # waiting on it) is marked "<- last parker".
    tasks = sorted(k for k in cur if k.startswith("tfgc_task_")
                   and k.endswith("_mutator_steps"))
    last_parker = cur.get("tfgc_sched_last_parker_task")
    if tasks:
        epochs = cur.get("tfgc_sched_handshake_epochs")
        hdr = "  tasks      "
        if epochs is not None:
            hdr += f"{epochs} handshake epochs"
        lines.append(hdr.rstrip())
    for k in tasks[:8]:
        idx = k[len("tfgc_task_"):-len("_mutator_steps")]
        base = f"tfgc_task_{idx}_"
        row = f"  task {idx}     {cur[k]} steps"
        krate = rate(cur, prev, k, dt)
        if krate is not None:
            row += f"  {krate / 1e6:.2f} Msteps/s"
        words = cur.get(base + "tlab_alloc_words")
        if words is not None:
            row += f"  tlab {fmt_bytes(words * 8)}"
            refills = cur.get(base + "tlab_refills", 0)
            row += f" ({refills} refills)"
        tts = cur.get(base + "world_stop_delay_ns_p99")
        if tts is not None:
            row += f"  tts p99 {fmt_ns(tts)}"
        if last_parker is not None and str(last_parker) == idx:
            row += "  <- last parker"
        lines.append(row)
    return "\n".join(lines)


def main():
    args = sys.argv[1:]
    interval, once = 1.0, False
    while args and args[0].startswith("--"):
        if args[0] == "--once":
            once = True
            args = args[1:]
        elif args[0] == "--interval":
            interval = float(args[1])
            args = args[2:]
        else:
            print(__doc__.strip(), file=sys.stderr)
            return 2
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    target = args[0] if ":" in args[0] else f"127.0.0.1:{args[0]}"
    url = f"http://{target}/metrics"

    prev, prev_t = None, None
    first = True
    try:
        while True:
            t0 = time.monotonic()
            try:
                cur, label = parse(fetch(url))
            except (urllib.error.URLError, OSError, TimeoutError) as e:
                if first:
                    print(f"tfgc_top: cannot reach {url}: {e}",
                          file=sys.stderr)
                    return 1
                print(f"\ntfgc_top: {url} gone ({e}); run ended")
                return 0
            dt = t0 - prev_t if prev_t is not None else 0.0
            text = frame(url, cur, label, prev, dt)
            if once:
                print(text)
                return 0
            # Clear + home, then the frame; plain enough for any terminal.
            sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
            sys.stdout.flush()
            first = False
            prev, prev_t = cur, t0
            time.sleep(interval)
    except KeyboardInterrupt:
        print()
        return 0


if __name__ == "__main__":
    sys.exit(main())
