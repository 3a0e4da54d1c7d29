"""Span recorder for the traced run, and the per-layer split it yields.

The recorder wraps the public entry points of each layer from outside
(nothing under ``src/`` changes).  Every call through a wrapped entry
point becomes one :class:`Span`: name, start, end, parent span, thread,
and, on the memcached client side, a request id.  Spans stay in memory and are
reduced once the repetition ends.

A span's *self time* is its duration minus the time its child spans
cover.  Children always run on their parent's thread (the parent is the
top of a per-thread stack), so they nest and never overlap, and the
covered time is the sum of their durations.  Each span is timed twice:
on the wall clock (start, end) and on its thread's CPU clock.  Layer
self times use the CPU clock: the interpreter lock lets one thread run
at a time, so a span's wall time also holds the time other runnable
threads held the lock (a fork's child running while its parent waits to
resume), and wall self times of concurrent threads would count that
time twice.  Waits are reported from the wall clock and the scheduler's
own counters instead.

A span's layer is its name up to the first dot.  Layers and the spans
booked to them:

========  ==============================================================
cc        ``cc.compile_source``
wasm      ``decode_module``, ``instantiate``, ``Machine.invoke``/``run``
wali      the host functions built by ``WaliHost._instrument``, the
          import table ``WaliHost.imports`` builds for every new image,
          and ``WaliRuntime.fork``/``spawn_thread``/``execve``
kernel    ``Kernel.call`` (the whole call: trace, counter and perf
          epilogue included)
block     ``BlockFS.settle`` (device time settled at syscall exit)
client    the benchmark's own memcached request loop and socket calls
========  ==============================================================
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

_now = time.perf_counter_ns
_cpu = time.thread_time_ns

class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "req",
                 "info", "err", "cpu", "child_cpu")

    def __init__(self, name, parent, req):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.req = req
        self.info = None
        self.err = False
        self.child_cpu = 0
        self.end = 0
        self.start = _now()
        self.cpu = -_cpu()

    def self_cpu(self) -> int:
        """CPU nanoseconds spent in this span outside its children."""
        return self.cpu - self.child_cpu


class Recorder:
    """In-memory span store plus the per-thread stack of open spans."""

    def __init__(self):
        self.spans: List[Span] = []
        self._tls = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, name: str, req: Optional[int] = None) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, req)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.cpu += _cpu()
        span.end = _now()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_cpu += span.cpu

    @contextmanager
    def span(self, name: str, req: Optional[int] = None):
        s = self.open(name, req)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, name: str, fn):
        rec = self

        def traced(*args, **kwargs):
            s = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(s)
        return traced

    def dump(self, path: str) -> None:
        """Write every span as one JSON line; ``parent`` is the line index
        of the parent span (-1 for a root)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start_ns": s.start, "end_ns": s.end,
                    "cpu_ns": s.cpu, "self_cpu_ns": s.self_cpu(),
                    "parent": index.get(id(s.parent), -1),
                    "thread": s.thread, "req": s.req,
                    "info": s.info, "err": s.err}) + "\n")

    # ------------------------------------------------------------------
    # entry-point patches
    # ------------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every layer's entry points for the duration of the block
        and restore the originals afterwards."""
        from repro import cc
        from repro.kernel.block import BlockFS
        from repro.kernel.errno import KernelError
        from repro.kernel.kernel import Kernel
        from repro.wali import runtime as wali_runtime
        from repro.wali.host import WaliHost
        from repro.wasm.interp import Machine

        rec = self
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        kernel_call = Kernel.call

        def traced_call(kself, proc, name, *args, **kwargs):
            # exit_group and wait4 carry the pids that pair a child's exit
            # with its parent's reap (proc.reap_lag_ms)
            s = rec.open("kernel.call")
            s.info = ("exit_group", proc.pid) if name == "exit_group" \
                else name
            try:
                res = kernel_call(kself, proc, name, *args, **kwargs)
                if name == "wait4":
                    s.info = ("wait4", res[0])
                return res
            except KernelError:
                s.err = True
                raise
            finally:
                rec.close(s)

        instrument = WaliHost._instrument

        def traced_instrument(hself, name, method):
            return rec._wrap("wali.host", instrument(hself, name, method))

        machine_run = Machine.run

        def traced_run(mself, min_depth=0):
            # steps are booked once per machine, by its outermost run;
            # a signal handler re-entering the same machine nests inside
            active = rec._tls.__dict__.setdefault("machines", set())
            key = id(mself)
            outer = key not in active
            if outer:
                active.add(key)
                steps0 = mself.steps
            s = rec.open("wasm.run")
            try:
                return machine_run(mself, min_depth)
            finally:
                rec.close(s)
                if outer:
                    active.discard(key)
                    s.info = mself.steps - steps0

        patch(Kernel, "call", traced_call)
        patch(WaliHost, "_instrument", traced_instrument)
        patch(WaliHost, "imports",
              self._wrap("wali.imports", WaliHost.imports))
        patch(Machine, "run", traced_run)
        patch(Machine, "invoke", self._wrap("wasm.invoke", Machine.invoke))
        patch(BlockFS, "settle", self._wrap("block.settle", BlockFS.settle))
        for attr in ("fork", "spawn_thread", "execve"):
            fn = wali_runtime.WaliRuntime.__dict__[attr]
            patch(wali_runtime.WaliRuntime, attr,
                  self._wrap(f"wali.{attr}", fn))
        patch(wali_runtime, "decode_module",
              self._wrap("wasm.decode", wali_runtime.decode_module))
        patch(wali_runtime, "instantiate",
              self._wrap("wasm.instantiate", wali_runtime.instantiate))
        patch(cc, "compile_source",
              self._wrap("cc.compile", cc.compile_source))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)


def layer_split(spans: List[Span], lo: int, hi: int) -> Dict[str, float]:
    """CPU self time per layer inside the wall-clock window ``[lo, hi)``,
    in seconds.  A span that straddles the window contributes the share
    of its self time that its wall interval overlaps the window."""
    out: Dict[str, float] = {}
    for s in spans:
        overlap = min(s.end, hi) - max(s.start, lo)
        if overlap <= 0:
            continue
        share = min(overlap / max(s.end - s.start, 1), 1.0)
        layer = s.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + s.self_cpu() * share / 1e9
    return out


def per_layer(spans: List[Span], rep) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition: span sums (CPU
    self time unless noted), the scheduler and registry counters read
    around the timed phase, and the composition check."""
    own: Dict[str, float] = {}
    count: Dict[str, int] = {}
    errors = steps = enters = 0
    device_ns = 0
    exits: Dict[int, int] = {}
    reaps = []
    for s in spans:
        own[s.name] = own.get(s.name, 0.0) + s.self_cpu() / 1e9
        count[s.name] = count.get(s.name, 0) + 1
        if s.name == "kernel.call":
            errors += s.err
            if s.info == "io_uring_enter":
                enters += 1
            elif isinstance(s.info, tuple):
                if s.info[0] == "exit_group":
                    exits[s.info[1]] = s.end
                else:
                    reaps.append((s.info[1], s.end))
        elif s.name == "wasm.run" and s.info is not None:
            steps += s.info
        elif s.name == "block.settle":
            device_ns += s.end - s.start     # a wait: wall clock
    lags = [(end - exits[pid]) / 1e6 for pid, end in reaps if pid in exits]
    wasm_self = own.get("wasm.run", 0.0) + own.get("wasm.invoke", 0.0)
    crossings = count.get("wali.host", 0)
    syscalls = count.get("kernel.call", 0)
    kc = rep.kernel
    hits, misses = kc["cache_hit"], kc["cache_miss"]
    run_s = rep.run_ns / 1e9
    # composition: the CPU self time of every layer inside the timed
    # phase, against its wall time.  The interpreter lock serialises the
    # threads, so the remainder is time no layer was busy: waits for a
    # wake-up, a poll slice or the lock hand-over, and unspanned code.
    busy = sum(layer_split(spans, *rep.window).values())
    return {
        "cc.compile_s": own.get("cc.compile", 0.0),
        "wasm.decode_s": own.get("wasm.decode", 0.0),
        "wasm.instantiate_s": own.get("wasm.instantiate", 0.0),
        "wasm.instantiations": count.get("wasm.instantiate", 0),
        "wasm.steps": steps,
        "wasm.self_s": wasm_self,
        "wasm.steps_per_s": steps / wasm_self if wasm_self else 0.0,
        "wali.crossings": crossings,
        "wali.crossings_per_op": crossings / max(rep.ops, 1),
        "wali.self_s": sum(v for n, v in own.items()
                           if n.startswith("wali.")),
        "wali.ns_per_crossing":
            own.get("wali.host", 0.0) * 1e9 / crossings if crossings else 0.0,
        "wali.fork_s": own.get("wali.fork", 0.0)
        + own.get("wali.spawn_thread", 0.0),
        "wali.execve_s": own.get("wali.execve", 0.0),
        "wali.imports_s": own.get("wali.imports", 0.0),
        "kernel.syscalls": syscalls,
        "kernel.service_s": own.get("kernel.call", 0.0),
        "kernel.ns_per_syscall":
            own.get("kernel.call", 0.0) * 1e9 / syscalls if syscalls else 0.0,
        "kernel.errno_ratio": errors / syscalls if syscalls else 0.0,
        "sched.wait_s": kc["wait_ns"] / 1e9,
        "sched.blocked_s": kc["blocked_ns"] / 1e9,
        "proc.reap_lag_ms": statistics.median(lags) if lags else 0.0,
        "block.cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "block.device_s": device_ns / 1e9,
        "uring.enters": enters,
        "uring.cqes_per_enter": kc["uring_cqes"] / enters if enters else 0.0,
        "client.self_s": sum(v for n, v in own.items()
                             if n.startswith("client.")),
        "compose.error_pct": (run_s - busy) / run_s * 100.0,
    }
