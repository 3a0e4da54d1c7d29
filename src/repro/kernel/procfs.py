"""The synthetic /proc filesystem: the guest-visible observability surface.

Everything here is read-only and generated **lazily at open** — a
``/proc`` file's inode carries a generator, and ``sys_openat`` snapshots
its output into the open-file description (reads then page through the
snapshot, like reading /proc on Linux observes one consistent pass).

Layout::

    /proc/version /proc/meminfo /proc/cpuinfo /proc/uptime   (boot-era)
    /proc/self -> /proc/<tgid>                               (dynamic)
    /proc/<pid>/comm|cmdline|stat|status|maps|mem            (per task)
    /proc/sched_debug     run queue, per-task vruntime/nice/wait
    /proc/uring           ring crossings, CQ overflows, link cancels
    /proc/inotify         fsnotify queue traffic and drops
    /proc/net/sockstat    backend + deliveries and impairment drops
    /proc/trace           tracer state, mask, and every counter
    /proc/trace_ctl       write-side controls (on/off/clear/mask=...)
    /proc/trace_pipe      the epollable trace-record stream
    /proc/trace_format    self-describing wire layout + payload schemas
    /proc/perf            perf-event subsystem status
    /proc/sys/kernel/perf_event_max_sample_rate   (writable knob)
    /proc/sys/net/wan/*   live WAN impairment knobs (wan backend only)

The stats files report from the shared
:class:`~repro.kernel.trace.CounterRegistry` — the same numbers
:mod:`repro.metrics.breakdown` reads — so a guest agent (``ktop``) and
the host metrics layer can never disagree.

``/proc/trace_pipe`` is a *live object* endpoint, not a snapshot: its
inode carries an ``opener`` that hands out an fd over the kernel's
:class:`~repro.kernel.trace.TraceBuffer`, readable and epollable through
the standard readiness machinery.  Reads are consuming and the cursor is
shared between all open descriptions, exactly like ftrace's trace_pipe.
"""

from __future__ import annotations

import time as _time

from .errno import ENODEV, KernelError
from .fdtable import OpenFile
from .process import STATE_RUNNING
from .vfs import CharDevice


class TraceControlDevice(CharDevice):
    """The /proc/trace_ctl device: written commands drive the tracer."""

    def __init__(self, kernel):
        self.kernel = kernel

    def write(self, data: bytes) -> int:
        trace = self.kernel.trace
        if trace is None:
            raise KernelError(ENODEV, "tracing is ablated")
        trace.control(data.decode(errors="replace"))
        return len(data)

    def read(self, length: int) -> bytes:
        return b""


def register_base(kernel) -> None:
    """Mount the non-per-process /proc surface (called from boot)."""
    v = kernel.vfs
    v.add_proc_file("/proc/version",
                    lambda p: b"Linux version 6.1.0-repro (wali)\n")
    v.add_proc_file("/proc/meminfo",
                    lambda p: b"MemTotal: 1048576 kB\n"
                              b"MemFree: 524288 kB\n")
    v.add_proc_file(
        "/proc/cpuinfo",
        lambda p: b"".join(
            f"processor\t: {i}\nmodel name\t: repro-cpu\n\n".encode()
            for i in range(kernel.ncpus)))
    v.add_proc_file(
        "/proc/uptime",
        lambda p: f"{(_time.monotonic_ns() - kernel.boot_monotonic_ns) / 1e9:.2f} 0.00\n".encode())
    v.add_dynamic_symlink(
        "/proc/self",
        lambda p: f"/proc/{p.tgid}" if p is not None else "/proc/1")

    v.add_proc_file("/proc/sched_debug",
                    lambda p: _sched_debug(kernel))
    v.add_proc_file("/proc/uring", lambda p: _uring_stats(kernel))
    v.add_proc_file("/proc/inotify", lambda p: _inotify_stats(kernel))
    v.mkdirs("/proc/net")
    v.add_proc_file("/proc/net/sockstat", lambda p: _sockstat(kernel))
    if kernel.trace is not None:
        v.add_proc_file(
            "/proc/trace",
            lambda p: kernel.trace.status_text().encode())
        v.add_proc_file(
            "/proc/trace_format",
            lambda p: kernel.trace.format_text().encode())
        v.mknod_device("/proc/trace_ctl", TraceControlDevice(kernel))
        v.add_special_file("/proc/trace_pipe",
                           lambda proc, flags: _open_trace_pipe(
                               kernel, flags))
    perf = getattr(kernel, "perf", None)
    if perf is not None:
        from .perf import PerfMaxRateDevice
        v.add_proc_file("/proc/perf",
                        lambda p: perf.status_text().encode())
        v.mkdirs("/proc/sys/kernel")
        v.mknod_device("/proc/sys/kernel/perf_event_max_sample_rate",
                       PerfMaxRateDevice(perf))
    from .net.wan import WanBackend, WanKnobDevice, _WAN_KNOBS
    if isinstance(kernel.net, WanBackend):
        v.mkdirs("/proc/sys/net/wan")
        for knob in _WAN_KNOBS:
            v.mknod_device(f"/proc/sys/net/wan/{knob}",
                           WanKnobDevice(kernel.net, knob))
    bd = getattr(kernel, "blockdev", None)
    if bd is not None:
        from .block import DropCachesDevice, VMKnobDevice
        v.add_proc_file("/proc/block", lambda p: bd.stats_text().encode())
        v.mkdirs("/proc/sys/vm")
        for knob in ("dirty_ratio", "dirty_background_ratio",
                     "dirty_expire_centisecs", "dirty_writeback_centisecs"):
            v.mknod_device(f"/proc/sys/vm/{knob}", VMKnobDevice(bd, knob))
        v.mknod_device("/proc/sys/vm/drop_caches", DropCachesDevice(bd))


def _open_trace_pipe(kernel, flags: int) -> OpenFile:
    if kernel.trace is None:
        raise KernelError(ENODEV, "tracing is ablated")
    return OpenFile(OpenFile.KIND_TRACE, flags, obj=kernel.trace.buffer,
                    path="/proc/trace_pipe")


# ----------------------------------------------------------------------
# generators (each runs once per open; keep them allocation-light)
# ----------------------------------------------------------------------

def _counters(kernel):
    return kernel.trace.counters if kernel.trace is not None else None


def _get(kernel, name: str) -> int:
    c = _counters(kernel)
    return c.get(name) if c is not None else 0


def _sched_debug(kernel) -> bytes:
    sched = kernel.sched
    lines = [
        sched.describe(),
        f"running: {sched.running_pids()} "
        f"runnable: {sched.runnable_pids()} "
        f"blocked: {sched.blocked_pids()}",
        f"switches: {_get(kernel, 'sched.switch')} "
        f"wakeups: {_get(kernel, 'sched.wakeup')} "
        f"preemptions: {_get(kernel, 'sched.preempt')} "
        f"migrations: {_get(kernel, 'sched.migrate')} "
        f"steals: {_get(kernel, 'sched.steal')} "
        f"lost_wakeups: {_get(kernel, 'sched.lost_wakeups')}",
    ]
    for rq in sched.cpu_snapshot():
        cur = rq["current"] if rq["current"] is not None else "-"
        lines.append(
            f"cpu#{rq['cpu']}: curr={cur} nr_runnable={rq['nr_runnable']} "
            f"min_vruntime={rq['min_vruntime']} queued={rq['queued']}")
    lines.append(
        f"{'pid':>5} {'comm':<15} {'st':<2} {'nice':>4} {'cpu':>3} "
        f"{'aff':>4} {'vruntime_ns':>14} {'wait_ns':>12} {'cpu_ns':>12}")
    for pid in sorted(kernel.processes):
        pr = kernel.processes[pid]
        se = pr.se
        lines.append(
            f"{pid:>5} {pr.comm or '-':<15} {se.state[:2]:<2} "
            f"{se.nice:>4} {se.cpu:>3} {se.affinity or '*':>4} "
            f"{se.vruntime_ns:>14} {se.wait_ns:>12} "
            f"{se.cpu_time_ns:>12}")
    return ("\n".join(lines) + "\n").encode()


def _uring_stats(kernel) -> bytes:
    return (
        f"crossings: {kernel.syscall_counts.get('io_uring_enter', 0)}\n"
        f"sqes_submitted: {_get(kernel, 'uring.submitted')}\n"
        f"cqes_completed: {_get(kernel, 'uring.completed')}\n"
        f"cq_overflows: {_get(kernel, 'uring.cq_overflow')}\n"
        f"link_cancels: {_get(kernel, 'uring.link_cancel')}\n"
        f"multishot_cqes: {_get(kernel, 'uring.multishot_cqes')}\n"
        f"buffers_registered: {_get(kernel, 'uring.buffers_registered')}\n"
        f"fixed_completions: {_get(kernel, 'uring.fixed_completions')}\n"
        f"sqpoll_submitted: {_get(kernel, 'uring.sqpoll_submitted')}\n"
        f"sqpoll_polls: {_get(kernel, 'uring.sqpoll_polls')}\n"
        f"sqpoll_idles: {_get(kernel, 'uring.sqpoll_idles')}\n"
        f"sqpoll_wakeups: {_get(kernel, 'uring.sqpoll_wakeups')}\n"
    ).encode()


def _inotify_stats(kernel) -> bytes:
    return (
        f"enqueued: {_get(kernel, 'inotify.enqueued')}\n"
        f"dropped: {_get(kernel, 'inotify.dropped')}\n"
    ).encode()


def _sockstat(kernel) -> bytes:
    return (
        f"backend: {kernel.net.describe()}\n"
        f"delivered: {_get(kernel, 'net.deliver')}\n"
        f"delivered_bytes: {_get(kernel, 'net.deliver_bytes')}\n"
        f"dropped: {_get(kernel, 'net.drop')}\n"
        f"reordered: {_get(kernel, 'net.reorder')}\n"
        f"duplicated: {_get(kernel, 'net.dup')}\n"
        f"epoll_wakes_coalesced: {_get(kernel, 'epoll.wake_coalesced')}\n"
    ).encode()


# ----------------------------------------------------------------------
# per-process entries
# ----------------------------------------------------------------------

def register_process(kernel, proc) -> None:
    base = f"/proc/{proc.pid}"
    try:
        kernel.vfs.mkdirs(base)
    except KernelError:
        return
    add = kernel.vfs.add_proc_file
    add(f"{base}/comm", lambda p, pr=proc: (pr.comm + "\n").encode())
    add(f"{base}/cmdline",
        lambda p, pr=proc: b"\x00".join(a.encode() for a in pr.argv))
    # classic stat columns, then scheduler fields: nice, vruntime,
    # cumulative runnable-wait and CPU time (all ns)
    add(f"{base}/stat",
        lambda p, pr=proc: (
            f"{pr.pid} ({pr.comm}) "
            f"{'R' if pr.state == STATE_RUNNING else 'Z'} "
            f"{pr.ppid} {pr.pgid} {pr.sid} "
            f"{pr.se.nice} {pr.se.vruntime_ns} {pr.se.wait_ns} "
            f"{pr.se.cpu_time_ns}\n").encode())
    add(f"{base}/status",
        lambda p, pr=proc, k=kernel: (
            f"Name:\t{pr.comm}\nPid:\t{pr.pid}\nTgid:\t{pr.tgid}\n"
            f"PPid:\t{pr.ppid}\nUid:\t{pr.uid}\t{pr.euid}\n"
            f"SigBlk:\t{pr.blocked_mask:016x}\n"
            f"SigPnd:\t{pr.pending.bits:016x}\n"
            f"Nice:\t{pr.se.nice}\n"
            f"VRuntime:\t{pr.se.vruntime_ns}\n"
            f"WaitNs:\t{pr.se.wait_ns}\n"
            f"ServiceNs:\t{k.kernel_time_ns.get(pr.tgid, 0)}\n"
            f"FDSize:\t{len(pr.fdtable.fds())}\n").encode())
    add(f"{base}/maps",
        lambda p, pr=proc: (pr.mm.maps_text() if pr.mm else "").encode())
    # the dangerous endpoint WALI must interpose on (§3.6 pitfall 1):
    add(f"{base}/mem", lambda p, pr=proc: b"<process memory image>")


def unregister_process(kernel, proc) -> None:
    try:
        kernel.vfs.unlink(f"/proc/{proc.pid}/comm")
    except KernelError:
        return
    for name in ("cmdline", "stat", "status", "maps", "mem"):
        try:
            kernel.vfs.unlink(f"/proc/{proc.pid}/{name}")
        except KernelError:
            pass
    try:
        kernel.vfs.unlink(f"/proc/{proc.pid}", rmdir=True)
    except KernelError:
        pass
