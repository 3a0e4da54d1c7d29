"""Processes, threads (LWPs), clone flags, rlimits, rusage.

A :class:`Process` is one LWP.  Conventional processes and threads differ
only in which resources they *share*, selected by clone flags — exactly the
spectrum Fig. 4 of the paper draws (§3.1).  WALI's 1-to-1 model maps each
guest process/thread to one of these.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from .fdtable import FDTable
from .mm import AddressSpace
from .sched import SchedEntity
from .signals import PendingSignals, SigDispositions
from .vfs import Inode

# clone flags (linux values)
CSIGNAL = 0x000000FF
CLONE_VM = 0x00000100
CLONE_FS = 0x00000200
CLONE_FILES = 0x00000400
CLONE_SIGHAND = 0x00000800
CLONE_THREAD = 0x00010000
CLONE_PARENT_SETTID = 0x00100000
CLONE_CHILD_CLEARTID = 0x00200000
CLONE_CHILD_SETTID = 0x01000000
CLONE_SETTLS = 0x00080000

# rlimit resources
RLIMIT_CPU = 0
RLIMIT_FSIZE = 1
RLIMIT_DATA = 2
RLIMIT_STACK = 3
RLIMIT_CORE = 4
RLIMIT_RSS = 5
RLIMIT_NPROC = 6
RLIMIT_NOFILE = 7
RLIMIT_MEMLOCK = 8
RLIMIT_AS = 9
RLIM_INFINITY = 0xFFFFFFFFFFFFFFFF

# wait4 options
WNOHANG = 1
WUNTRACED = 2

# process states
STATE_RUNNING = "running"
STATE_ZOMBIE = "zombie"
STATE_DEAD = "dead"
STATE_STOPPED = "stopped"


def wait_status_exited(code: int) -> int:
    return (code & 0xFF) << 8


def wait_status_signaled(sig: int) -> int:
    return sig & 0x7F


class Rusage:
    """Resource usage accounting (getrusage / wait4)."""

    __slots__ = ("utime_ns", "stime_ns", "maxrss_kb", "nvcsw", "nivcsw",
                 "minflt", "majflt")

    def __init__(self):
        self.utime_ns = 0
        self.stime_ns = 0
        self.maxrss_kb = 0
        self.nvcsw = 0
        self.nivcsw = 0
        self.minflt = 0
        self.majflt = 0


class Process:
    """One kernel task (LWP)."""

    def __init__(self, pid: int, ppid: int, *, tgid: Optional[int] = None,
                 fdtable: Optional[FDTable] = None,
                 cwd: Optional[Inode] = None,
                 dispositions: Optional[SigDispositions] = None,
                 mm: Optional[AddressSpace] = None):
        self.pid = pid
        self.tgid = tgid if tgid is not None else pid
        self.ppid = ppid
        self.pgid = pid
        self.sid = pid
        self.uid = self.euid = 1000
        self.gid = self.egid = 1000
        self.comm = ""
        self.argv: List[str] = []
        self.environ: Dict[str, str] = {}

        self.fdtable = fdtable if fdtable is not None else FDTable()
        self.cwd = cwd
        self.umask = 0o022
        self.mm = mm
        # the guest interpreter (wasm.Machine) executing this task, linked
        # by the WALI runtime at load/clone time; the perf sampler walks
        # its frame stack for guest call-stack samples (None for tasks
        # without a guest program)
        self.machine = None

        self.dispositions = dispositions or SigDispositions()
        self.pending = PendingSignals()
        self.blocked_mask = 0
        # signalfd front-ends draining this process's pending set; signal
        # generation wakes their waitqueues (epoll/ppoll/uring readiness)
        self.signalfds: List = []

        self.state = STATE_RUNNING
        self.exit_status = 0
        self.exit_signal = 0
        self.children: List[int] = []
        self.thread_group: List[int] = [self.pid]

        self.rusage = Rusage()
        self.limits: Dict[int, tuple] = {
            RLIMIT_NOFILE: (1024, 4096),
            RLIMIT_STACK: (8 << 20, RLIM_INFINITY),
            RLIMIT_FSIZE: (RLIM_INFINITY, RLIM_INFINITY),
            RLIMIT_AS: (RLIM_INFINITY, RLIM_INFINITY),
            RLIMIT_CPU: (RLIM_INFINITY, RLIM_INFINITY),
            RLIMIT_DATA: (RLIM_INFINITY, RLIM_INFINITY),
            RLIMIT_CORE: (0, RLIM_INFINITY),
            RLIMIT_NPROC: (4096, 4096),
        }

        self.tid_address = 0
        self.robust_list = 0
        self.alarm_deadline_ns: Optional[int] = None

        # the wake flag: Kernel.wait_event clears it and sleeps on
        # ``wake`` while it stays clear; every wake source calls kick()
        self.wake = threading.Condition()
        self.woken = False

        # scheduler state: vruntime, nice/weight, slice + wait accounting
        self.se = SchedEntity()

        # is_thread: True when created with CLONE_THREAD
        self.is_thread = self.tgid != self.pid

    # ---- signals ----

    def generate_signal(self, sig: int, sender_pid: int = 0,
                        sender_uid: int = 0) -> None:
        from .signals import DFL_CONT, DFL_IGN, SIG_DFL, SIG_IGN, \
            default_action, sig_bit

        # Linux discards ignored signals at generation time: a pending
        # SIGCHLD with SIG_DFL must not interrupt the parent's wait4.
        # A signalfd holding the signal in its mask keeps it queueable —
        # the fd is a consumer even when default delivery would ignore.
        act = self.dispositions.get(sig)
        if act.handler == SIG_IGN or (
                act.handler == SIG_DFL and
                default_action(sig) in (DFL_IGN, DFL_CONT)):
            if not any(sig_bit(sig) & sfd.mask for sfd in self.signalfds):
                return
        self.pending.generate(sig, sender_pid, sender_uid)
        for sfd in list(self.signalfds):
            sfd.signal_generated(sig)
        self.kick()

    def kick(self, events: int = 0) -> None:
        """Wake this task: set the wake flag and notify its sleep.

        The one way to wake a task (child exit, futex wake, PI hand-off,
        signal generation); waitqueues call it directly as a subscriber,
        hence the ignored ``events`` mask."""
        with self.wake:
            self.woken = True
            self.wake.notify_all()

    def has_deliverable_signal(self) -> bool:
        return self.pending.any_deliverable(self.blocked_mask)

    # ---- rlimits ----

    def getrlimit(self, resource: int) -> tuple:
        return self.limits.get(resource, (RLIM_INFINITY, RLIM_INFINITY))

    def setrlimit(self, resource: int, cur: int, maxv: int) -> None:
        self.limits[resource] = (cur, maxv)

    def __repr__(self):
        return (f"<Process pid={self.pid} tgid={self.tgid} "
                f"comm={self.comm!r} state={self.state}>")
