"""One end-to-end benchmark for WALI guests: lua, sqlite, memcached, shell.

Usage (from the repository root)::

    python3 walibench/run.py --workload lua --seed 1 --seconds 10 --trace 0

The command repeats the workload (set-up, timed phase, output check)
until ``--seconds`` of repetitions have run, after one warm-up
repetition, and prints one JSON line last on stdout:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics from untraced repetitions,
each time scaled to a reference host speed measured between repetitions
(see ``calibrate``).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer split from the traced ones (see ``spans.py`` and NOTES.md),
plus the tracing overhead between the two kinds.  Human-readable detail
goes to stderr.  The exit status is 0 only when every output matched its
reference model and nothing stalled.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import random
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the sum of per-layer self times must come within this share of run_s
COMPOSE_BOUND_PCT = 10.0
# workloads whose work counts must repeat exactly for one seed
EXACT_WORKLOADS = ("lua", "sqlite", "shell")
EXACT_COUNTS = ("wasm.steps", "wali.crossings", "kernel.syscalls")
MIN_REPS = 3
# where a traced run leaves the spans of its last traced repetition
SPAN_DIR = ".walibench"
# the calibration job's median time on the machine where the bounds were
# set (2-vCPU 2.1 GHz Xeon VM, Python 3.11.7): timed metrics are scaled
# to a host that runs it in this time
CAL_REF_S = 0.014
# glibc mallopt parameter: the most arenas malloc may create
M_ARENA_MAX = -8


# units of the per-layer metrics (the end-to-end ones carry their own)
UNITS = {
    "cc.compile_s": "s", "wasm.decode_s": "s", "wasm.instantiate_s": "s",
    "wasm.instantiations": "count", "wasm.steps": "count",
    "wasm.self_s": "s", "wasm.steps_per_s": "1/s",
    "wali.crossings": "count", "wali.crossings_per_op": "count",
    "wali.self_s": "s", "wali.ns_per_crossing": "ns", "wali.fork_s": "s",
    "wali.execve_s": "s", "wali.imports_s": "s", "kernel.syscalls": "count",
    "kernel.service_s": "s", "kernel.ns_per_syscall": "ns",
    "kernel.errno_ratio": "ratio", "sched.wait_s": "s",
    "sched.blocked_s": "s", "proc.reap_lag_ms": "ms",
    "block.cache_hit_ratio": "ratio", "block.device_s": "s",
    "uring.enters": "count", "uring.cqes_per_enter": "count",
    "client.self_s": "s",
    "trace.overhead_pct": "%", "compose.error_pct": "%",
}


class _Dispatch:
    """A toy stack machine: attribute dispatch, list and buffer traffic,
    the kind of work the wasm interpreter does per step."""

    def __init__(self, mem: bytearray):
        self.mem, self.stack, self.acc = mem, [], 0

    def push(self, a):
        self.stack.append(a)

    def load(self, a):
        self.stack.append(self.mem[a])

    def add(self, a):
        self.acc = (self.acc + self.stack.pop() + a) & 0xFFFFFFFF

    def store(self, a):
        self.mem[a] = self.acc & 0xFF


_CAL_MEM = bytearray(2 << 20)
_CAL_PROG = [(("load", "push", "add")[k % 3], a) for k, a in enumerate(
    random.Random(1).randrange(len(_CAL_MEM)) for _ in range(20_000))]
_CAL_PROG += [("store", a) for _, a in _CAL_PROG[:2000:3]]


def calibrate() -> float:
    """Seconds the host takes for a fixed pure-Python job that runs no
    code of the repository.

    The host's speed drifts by a fifth and more over tens of seconds
    (load from outside the process); with the process on one CPU, this
    job slows and speeds up with the workloads (correlation 0.9 over
    10-s windows), so each repetition's times are scaled by
    ``CAL_REF_S / calibration`` measured around it.  A change to the
    program cannot move the job, so a regression still shows in full.
    """
    t0 = time.perf_counter()
    d, s = {}, 0
    for i in range(40_000):
        d[i & 255] = s
        s = (s * 31 + d.get(i & 127, 1)) & 0xFFFFFFFF
    m = _Dispatch(_CAL_MEM)
    for op, a in _CAL_PROG:
        getattr(m, op)(a)
    return time.perf_counter() - t0


def _p95(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=20, method="inclusive")[18]


def end_to_end(reps, peak_rss_mb: float) -> dict:
    """Medians over repetitions, so that a burst of host load that slows
    a minority of repetitions does not move the result.  Every time is
    first scaled by its repetition's host-speed factor."""
    med = statistics.median
    if all(len(r.latencies_s) >= 20 for r in reps):
        # per-request samples (memcached): each repetition's percentile
        p50 = med(med(r.latencies_s) * r.scale for r in reps)
        p95 = med(_p95(r.latencies_s) * r.scale for r in reps)
    else:
        # one per-op sample per repetition: percentiles across them
        lat = [s * r.scale for r in reps for s in r.latencies_s]
        p50, p95 = med(lat), _p95(lat)
    return {
        "setup_s": (med(r.setup_ns * r.scale for r in reps) / 1e9, "s"),
        "run_s": (med(r.run_ns * r.scale for r in reps) / 1e9, "s"),
        "ops_per_s": (med(r.ops * 1e9 / (r.run_ns * r.scale)
                          for r in reps), "1/s"),
        "p50_ms": (p50 * 1e3, "ms"),
        "p95_ms": (p95 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def steady_process() -> None:
    """Keep the process, and every thread it starts, on one CPU and one
    malloc arena.

    The interpreter lock runs one thread at a time anyway; what a second
    CPU adds is cross-CPU wake-ups at every hand-over between guest
    threads and the client (memcached's replies, shell's fork and wait4),
    whose latency on a shared virtual machine depends on the host's load
    and dominated the spread of those workloads.  The last CPU the
    process may use is taken, away from CPU 0's interrupt load.  With
    one arena, how many per-thread arenas the guest threads happened to
    create no longer moves the peak memory (shell: 108-119 MB across
    runs with the default, 105.6-106.7 MB with one arena).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1)
    except (OSError, AttributeError):
        pass            # not glibc: the allocator's own default stands


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("lua", "sqlite", "memcached", "shell"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    steady_process()
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"walibench: no WALI sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from spans import Recorder, per_layer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    log = sys.stderr
    all_reps = [workload.rep()]      # warm-up: checked, not timed
    reps, traced = [], []
    rec = None
    peak_rss_mb = 0.0
    cal = calibrate()
    deadline = time.perf_counter() + args.seconds

    def timed(rep):
        # the host's speed around the repetition: the calibrations just
        # before and just after it
        nonlocal cal
        before, cal = cal, calibrate()
        rep.scale = CAL_REF_S * 2 / (before + cal)
        return rep

    while not any(r.stalls for r in all_reps):
        if time.perf_counter() >= deadline and len(reps) >= MIN_REPS:
            break
        gc.collect()
        rep = timed(workload.rep())
        reps.append(rep)
        all_reps.append(rep)
        if len(reps) <= MIN_REPS:
            # the process peak grows with the repetition count (allocator
            # arenas of guest threads), so it is read at a fixed count
            peak_rss_mb = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            gc.collect()
            rec = Recorder()
            with rec.installed():
                trep = workload.rep(rec)
            trep = timed(trep)
            traced.append((trep, per_layer(rec.spans, trep)))
            all_reps.append(trep)

    attempted = sum(r.attempted for r in all_reps)
    failed = sum(r.failed for r in all_reps)
    stalls = sum(r.stalls for r in all_reps)
    correct = failed == 0 and stalls == 0
    for r in all_reps:
        for note in r.notes:
            print(f"walibench: {note}", file=log)

    lat = sorted(s for r in reps for s in r.latencies_s)
    print(f"walibench: {args.workload} seed={args.seed} reps={len(reps)} "
          f"traced={len(traced)} latency samples={len(lat)} "
          f"error_rate={failed / max(attempted, 1):.6f} "
          f"({failed}/{attempted}) stalls={stalls}", file=log)
    if reps:
        raw_run_s = statistics.median(r.run_ns for r in reps) / 1e9
        print(f"walibench: host-speed scale median "
              f"{statistics.median(r.scale for r in reps):.3f}; unscaled "
              f"run_s median {raw_run_s:.4f} s", file=log)
    if len(lat) >= 100:
        print(f"walibench: p99 (diagnostic, not gated) "
              f"{lat[int(len(lat) * 0.99)] * 1e3:.3f} ms", file=log)
    out = {}                # stays empty if a stall came before any timing
    if args.trace and traced:
        metrics = {}
        rows = [m for _, m in traced]
        for n in rows[0]:
            metrics[n] = statistics.median(m[n] for m in rows)
        metrics["trace.overhead_pct"] = (
            statistics.median(r.run_ns * r.scale for r, _ in traced)
            / statistics.median(r.run_ns * r.scale for r in reps)
            - 1.0) * 100.0
        if args.workload in EXACT_WORKLOADS:
            for n in EXACT_COUNTS:
                seen = sorted({m[n] for m in rows})
                if len(seen) > 1:
                    correct = False
                    print(f"walibench: {n} differs across runs of one "
                          f"seed: {seen}", file=log)
        err = metrics["compose.error_pct"]
        verdict = "ok" if abs(err) <= COMPOSE_BOUND_PCT else \
            "MISS: an unmeasured layer holds the difference"
        print(f"walibench: composition: layers leave {err:+.2f}% of run_s "
              f"unaccounted (bound +-{COMPOSE_BOUND_PCT:.0f}%): {verdict}",
              file=log)
        out = {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()}
        os.makedirs(os.path.join(ROOT, SPAN_DIR), exist_ok=True)
        path = os.path.join(ROOT, SPAN_DIR, f"spans-{args.workload}-"
                                             f"seed{args.seed}.jsonl")
        rec.dump(path)
        print(f"walibench: spans of the last traced repetition: {path}",
              file=log)
    elif reps and not args.trace:
        out = {n: {"value": v, "unit": u}
               for n, (v, u) in end_to_end(reps, peak_rss_mb).items()}
    for n, m in out.items():
        print(f"walibench: {n:24s} {m['value']:14.6f} {m['unit']}", file=log)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
