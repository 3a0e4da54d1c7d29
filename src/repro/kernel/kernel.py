"""The kernel object: boot, process table, syscall dispatch, blocking.

One :class:`Kernel` instance is a self-contained Linux-like OS.  Syscalls are
methods named ``sys_<name>`` (provided by the mixins in
:mod:`repro.kernel.calls`); :meth:`Kernel.call` dispatches by name, counts
invocations (Fig. 2), and accounts kernel time per thread group (Fig. 7).

Blocking syscalls are schedule points: they wait in
:meth:`Kernel.wait_event`, which parks the task off the run queue through
:meth:`repro.kernel.sched.Scheduler.sleep` (releasing its CPU slot for
the duration) and re-checks for deliverable signals on every wakeup, so
signal generation interrupts syscalls with ``EINTR`` exactly like Linux.
``Kernel.call`` itself acquires a CPU slot on entry and honors
preemption on exit, so syscall latency under load includes
*runnable-wait* (contention), accounted separately in ``sched_wait_ns``.
"""

from __future__ import annotations

import random
import threading
import time as _time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

from .arch import X86_64
from .calls import (
    EventCalls, FSCalls, MemCalls, MiscCalls, NetCalls, NotifyCalls,
    PerfCalls, ProcCalls, SigCalls, URingCalls,
)
from . import procfs
from .errno import EAGAIN, EINTR, ENOSYS, EPIPE, ETIMEDOUT, KernelError
from .fdtable import OpenFile
from .process import Process, STATE_RUNNING
from .signals import SIGPIPE
from .vfs import (
    NullDevice, O_RDWR, RandomDevice, TTYDevice, VFS, ZeroDevice,
)

# wakeups are event-driven (Process.kick); a blocked task still re-checks
# its condition once per slice, the safety net against a lost wakeup
_SAFETY_SLICE_S = 0.05


class Kernel(FSCalls, ProcCalls, SigCalls, NetCalls, MemCalls, MiscCalls,
             EventCalls, URingCalls, NotifyCalls, PerfCalls):
    """A self-contained virtual Linux kernel."""

    def __init__(self, machine: str = X86_64, ncpus: int = 4,
                 rng_seed: int = 0xC0FFEE,
                 net_backend=None, sched=None, trace=None, block=None):
        from .block import create_blockfs
        from .net import create_backend
        from .perf import PerfSubsystem
        from .sched import create_scheduler
        from .trace import create_trace

        self.machine = machine
        self.ncpus = ncpus
        self.vfs = VFS()
        # kernel observability (kernel/trace.py): tracepoints, the shared
        # counter registry, and per-syscall latency histograms.  Specs:
        # None = compiled in but disabled, "on" = enabled from boot,
        # "off"/"none" = ablated entirely (no /proc/trace* files either).
        # Created before the scheduler and the net backend so both can
        # pick up their trace/counter sinks at construction time.
        self.trace = create_trace(trace)
        # network device model: a backend spec string ("loopback",
        # "wan:latency_ms=5,loss=0.01", "host:optin=1"), a NetBackend
        # instance, or None for the default loopback stack (kernel/net/).
        self.net = create_backend(net_backend)
        self.net.trace = self.trace
        self.net.counters = \
            self.trace.counters if self.trace is not None else None
        self.processes: Dict[int, Process] = {}
        self.table_lock = threading.RLock()
        self._next_pid = 1
        self.futex_waiters: Dict[tuple, list] = {}
        # PI futexes: key -> {"owner": Process|None, "waiters": [Process]}
        self.futex_pi: Dict[tuple, dict] = {}
        # guards futex owner/waiter transitions: with per-CPU slots two
        # handlers can genuinely race on the same futex word (never held
        # while blocking or while holding the scheduler's condition)
        self.futex_lock = threading.Lock()
        self.syslog_buffer: List[str] = []
        self.rng = random.Random(rng_seed)
        self.boot_monotonic_ns = _time.monotonic_ns()

        # tracing / accounting
        self.syscall_counts: Counter = Counter()
        self.proc_syscall_counts: Dict[int, Counter] = defaultdict(Counter)
        self.kernel_time_ns: Dict[int, int] = defaultdict(int)
        self.blocked_time_ns: Dict[int, int] = defaultdict(int)
        # runnable-but-waiting-for-a-CPU time (pure contention; ~0 idle)
        self.sched_wait_ns: Dict[int, int] = defaultdict(int)

        # CPU model: a run queue with `ncpus` slots and time slices; spec
        # strings ("cpus=1,slice_us=50", "off") or a Scheduler instance
        self.sched = create_scheduler(sched, ncpus_default=ncpus,
                                      kernel=self)

        # perf events (kernel/perf.py): sampling profiler + counting
        # events behind perf_event_open.  `perf.active` gates the
        # per-syscall and per-tick hooks, keeping the disabled cost to
        # one attribute load.
        self.perf = PerfSubsystem(self)

        # block layer (kernel/block.py): a disk + page cache + writeback
        # under the VFS's regular files at its mountpoint (default
        # /data).  Specs: None = default 8 MiB disk, "off"/"none" =
        # purely memory-backed VFS, "block:blocks=...,seek_us=...",
        # a Disk (remount an image), or a BlockFS instance.
        self.blockdev = create_blockfs(block, trace=self.trace)

        self.console = TTYDevice()
        self._boot_fs()
        self._init_proc = self._make_init()

    # ------------------------------------------------------------------
    # boot
    # ------------------------------------------------------------------

    def _boot_fs(self) -> None:
        v = self.vfs
        for d in ("/tmp", "/home", "/etc", "/dev", "/proc", "/bin",
                  "/usr/bin", "/usr/lib", "/var/log", "/root"):
            v.mkdirs(d)
        v.write_file("/etc/hostname", b"wali-repro\n")
        v.write_file("/etc/passwd",
                     b"root:x:0:0:root:/root:/bin/sh\n"
                     b"user:x:1000:1000:user:/home/user:/bin/sh\n")
        v.write_file("/etc/group", b"root:x:0:\nuser:x:1000:\n")
        v.write_file("/etc/hosts", b"127.0.0.1 localhost\n")
        v.mknod_device("/dev/null", NullDevice())
        v.mknod_device("/dev/zero", ZeroDevice())
        v.mknod_device("/dev/random", RandomDevice())
        v.mknod_device("/dev/urandom", RandomDevice())
        v.mknod_device("/dev/tty", self.console)
        v.mknod_device("/dev/console", self.console)
        if self.blockdev is not None:
            self.blockdev.mount(v)
        procfs.register_base(self)

    def _make_init(self) -> Process:
        init = Process(self.alloc_pid(), 0)
        init.comm = "init"
        init.cwd = self.vfs.root
        init.uid = init.euid = 0
        init.gid = init.egid = 0
        self.processes[init.pid] = init
        self.register_procfs(init)
        return init

    # ------------------------------------------------------------------
    # process table
    # ------------------------------------------------------------------

    def alloc_pid(self) -> int:
        with self.table_lock:
            pid = self._next_pid
            self._next_pid += 1
            return pid

    def create_process(self, argv: Optional[List[str]] = None,
                       environ: Optional[Dict[str, str]] = None,
                       cwd: str = "/", ppid: Optional[int] = None,
                       stdio: bool = True) -> Process:
        """Spawn a fresh userspace process (what the runtime does per app)."""
        proc = Process(self.alloc_pid(),
                       ppid if ppid is not None else self._init_proc.pid)
        proc.argv = list(argv or [])
        proc.environ = dict(environ or {})
        proc.comm = (proc.argv[0].rsplit("/", 1)[-1] if proc.argv else "")[:15]
        proc.cwd = self.vfs.lookup(cwd)
        if stdio:
            tty = self.vfs.lookup("/dev/tty")
            for _ in range(3):
                proc.fdtable.install(
                    OpenFile(OpenFile.KIND_CHR, O_RDWR, inode=tty,
                             path="/dev/tty"))
        with self.table_lock:
            self.processes[proc.pid] = proc
        self._init_proc.children.append(proc.pid)
        self.register_procfs(proc)
        return proc

    def process(self, pid: int) -> Process:
        proc = self.processes.get(pid)
        if proc is None:
            raise KeyError(f"no process {pid}")
        return proc

    # ---- procfs per-process entries (kernel/procfs.py) ----

    def register_procfs(self, proc: Process) -> None:
        procfs.register_process(self, proc)

    def unregister_procfs(self, proc: Process) -> None:
        procfs.unregister_process(self, proc)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def call(self, proc: Process, name: str, *args, **kwargs):
        """Invoke syscall ``name`` with tracing and time accounting.

        Besides the pre-existing counters, every call feeds the
        observability layer: ``syscall_enter``/``syscall_exit``
        tracepoints (exit carries ``-errno`` in ``arg``, 0 on success)
        and the always-on per-syscall log2 latency histograms.  The
        elapsed wall time is split into *service* (time actually inside
        the handler) and *runnable-wait* (time spent queued for a CPU
        slot, read back from ``sched_wait_ns``) so tail-latency reports
        can separate kernel cost from contention.
        """
        method = getattr(self, f"sys_{name}", None)
        if method is None:
            raise KernelError(ENOSYS, name)
        trace = self.trace
        tgid = proc.tgid
        t0 = _time.perf_counter_ns()
        w0 = self.sched_wait_ns.get(tgid, 0) if trace is not None else 0
        self.sched.syscall_enter(proc)
        err = 0
        if trace is not None:
            trace.emit("syscall_enter", pid=proc.pid, info=name)
        try:
            result = method(proc, *args, **kwargs)
            bd = self.blockdev
            if bd is not None and bd.has_pending():
                # accrued disk time is settled here, at syscall exit,
                # parking the task on the scheduler like any blocking
                # primitive (the I/O wait is a schedule point)
                bd.settle(self, proc)
            return result
        except KernelError as exc:
            err = exc.errno
            raise
        finally:
            bd = self.blockdev
            if bd is not None:
                bd.drop_pending()  # error paths forfeit unsettled cost
            self.sched.syscall_exit(proc)
            dt = _time.perf_counter_ns() - t0
            self.syscall_counts[name] += 1
            self.proc_syscall_counts[tgid][name] += 1
            if trace is not None:
                wait = self.sched_wait_ns.get(tgid, 0) - w0
                trace.record_syscall(name, dt - wait, wait)
                trace.counters.inc("syscall." + name)
                trace.emit("syscall_exit", pid=proc.pid, arg=-err,
                           info=name, args=(-err, dt - wait, wait))
            perf = self.perf
            if perf.active:
                perf.on_syscall(proc)
            # the epilogue above is kernel work too: book it with the
            # call, not to the caller's (WALI) layer
            spent = _time.perf_counter_ns() - t0
            self.kernel_time_ns[tgid] += spent
            proc.rusage.stime_ns += spent

    def has_syscall(self, name: str) -> bool:
        return hasattr(self, f"sys_{name}")

    def implemented_syscalls(self) -> List[str]:
        return sorted(n[4:] for n in dir(self) if n.startswith("sys_"))

    # ------------------------------------------------------------------
    # blocking
    # ------------------------------------------------------------------

    def wait_event(self, proc: Process, cond: Callable, wqs=(),
                   timeout_ns: Optional[int] = None,
                   empty: Optional[Callable] = None):
        """Block until ``cond()`` returns non-None and return that value.

        The kernel's one blocking loop.  The wake flag is cleared and
        ``proc.kick`` subscribed to every waitqueue in ``wqs`` *before*
        the first ``cond()``, so a wake landing between a failed check
        and the sleep sets the flag and the sleep returns at once.  Other
        wake sources (child exit, futex wake, PI hand-off, signals) kick
        the task directly.  A deliverable signal interrupts with
        ``EINTR``; a timeout returns ``empty()`` when given, else raises
        ``ETIMEDOUT``.  The sleep is cut into safety slices: a slice that
        runs out unkicked and is followed by a successful ``cond()`` was
        a lost wakeup, counted in ``sched.lost_wakeups``.
        """
        proc.woken = False
        kick = proc.kick
        wqs = [wq for wq in wqs if wq is not None]
        for wq in wqs:
            wq.subscribe(kick)
        deadline = None
        if timeout_ns is not None:
            deadline = _time.monotonic_ns() + timeout_ns
        slept_out = False
        try:
            while True:
                result = cond()
                if result is not None:
                    if slept_out and self.trace is not None:
                        self.trace.counters.inc("sched.lost_wakeups")
                    return result
                if proc.has_deliverable_signal() or \
                        proc.state != STATE_RUNNING:
                    raise KernelError(EINTR, "interrupted by signal")
                wait_s = _SAFETY_SLICE_S
                if deadline is not None:
                    remaining = deadline - _time.monotonic_ns()
                    if remaining <= 0:
                        if empty is not None:
                            return empty()
                        raise KernelError(ETIMEDOUT)
                    wait_s = min(wait_s, remaining / 1e9)
                kicked = self.sched.sleep(proc, wait_s)
                slept_out = not kicked and wait_s == _SAFETY_SLICE_S
        finally:
            for wq in wqs:
                wq.unsubscribe(kick)

    def _blocking_io(self, proc: Process, file: OpenFile, step: Callable):
        """Run a non-blocking I/O step, waiting while it would block.

        ``EAGAIN`` means "would block": re-raised for O_NONBLOCK files,
        else the task waits on the file's waitqueue and retries.
        ``EPIPE`` generates SIGPIPE, like Linux.
        """
        def cond():
            try:
                return step()
            except KernelError as exc:
                if exc.errno == EPIPE:
                    proc.generate_signal(SIGPIPE)
                elif exc.errno == EAGAIN and not file.nonblocking:
                    return None
                raise

        result = cond()
        if result is not None:
            return result
        return self.wait_event(proc, cond, (file.wait_queue(),))

    # ------------------------------------------------------------------
    # console helpers (tests & examples)
    # ------------------------------------------------------------------

    def console_output(self) -> bytes:
        return bytes(self.console.output)

    def console_feed(self, data: bytes) -> None:
        self.console.feed(data)

    def clear_console(self) -> None:
        self.console.output.clear()
