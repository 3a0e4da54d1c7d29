"""Time, randomness, system information and other odds and ends."""

from __future__ import annotations

import random
import threading
import time as _time
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errno import EINVAL, EPERM, KernelError
from ..process import Process
from ..signals import SIGALRM

CLOCK_REALTIME = 0
CLOCK_MONOTONIC = 1
CLOCK_PROCESS_CPUTIME_ID = 2
CLOCK_MONOTONIC_RAW = 4
CLOCK_BOOTTIME = 7

# Linux hands out at most INT_MAX >> 6 bytes (32 MiB - 1) per getrandom call
GETRANDOM_MAX = 33_554_431


@dataclass
class UtsName:
    sysname: str = "Linux"
    nodename: str = "wali-repro"
    release: str = "6.1.0-repro"
    version: str = "#1 SMP repro"
    machine: str = "wasm32"
    domainname: str = "(none)"


@dataclass
class SysInfo:
    uptime_s: int = 0
    loads: Tuple[int, int, int] = (0, 0, 0)
    totalram: int = 1 << 30
    freeram: int = 1 << 29
    procs: int = 0
    mem_unit: int = 1


class MiscCalls:
    """Mixin with misc syscalls; mixed into :class:`Kernel`."""

    def sys_clock_gettime(self, proc: Process, clock_id: int) -> int:
        """Returns nanoseconds."""
        if clock_id in (CLOCK_MONOTONIC, CLOCK_MONOTONIC_RAW, CLOCK_BOOTTIME):
            return _time.monotonic_ns() - self.boot_monotonic_ns
        if clock_id == CLOCK_REALTIME:
            return _time.time_ns()
        if clock_id == CLOCK_PROCESS_CPUTIME_ID:
            return proc.rusage.utime_ns + proc.rusage.stime_ns
        raise KernelError(EINVAL, f"clock {clock_id}")

    def sys_clock_getres(self, proc: Process, clock_id: int) -> int:
        return 1  # 1 ns resolution

    def sys_clock_settime(self, proc: Process, clock_id: int,
                          time_ns: int) -> int:
        raise KernelError(EPERM, "cannot set the clock")

    def sys_gettimeofday(self, proc: Process) -> Tuple[int, int]:
        ns = _time.time_ns()
        return ns // 1_000_000_000, (ns % 1_000_000_000) // 1000

    def sys_nanosleep(self, proc: Process, duration_ns: int) -> int:
        if duration_ns < 0:
            raise KernelError(EINVAL, "negative sleep")
        self.wait_event(proc, lambda: None, timeout_ns=duration_ns,
                        empty=lambda: 0)
        return 0

    def sys_clock_nanosleep(self, proc: Process, clock_id: int, flags: int,
                            duration_ns: int) -> int:
        return self.sys_nanosleep(proc, duration_ns)

    def sys_alarm(self, proc: Process, seconds: int) -> int:
        """Schedule SIGALRM via a timer thread (delivered at safepoints)."""
        prev = proc.alarm_deadline_ns
        now = _time.monotonic_ns()
        remaining = max(0, (prev - now) // 1_000_000_000) if prev else 0
        if seconds == 0:
            proc.alarm_deadline_ns = None
            return remaining
        proc.alarm_deadline_ns = now + seconds * 1_000_000_000
        timer = threading.Timer(
            seconds, lambda: self._fire_alarm(proc))
        timer.daemon = True
        timer.start()
        return remaining

    def _fire_alarm(self, proc: Process) -> None:
        if proc.alarm_deadline_ns is not None and \
                _time.monotonic_ns() >= proc.alarm_deadline_ns - 10_000_000:
            proc.alarm_deadline_ns = None
            proc.generate_signal(SIGALRM)

    def sys_setitimer(self, proc: Process, which: int, interval_ns: int,
                      value_ns: int) -> int:
        if value_ns:
            self.sys_alarm(proc, max(1, value_ns // 1_000_000_000))
        else:
            proc.alarm_deadline_ns = None
        return 0

    def sys_getitimer(self, proc: Process, which: int) -> int:
        return 0

    def sys_getrandom(self, proc: Process, length: int,
                      flags: int = 0) -> bytes:
        """Up to :data:`GETRANDOM_MAX` bytes from the kernel's seeded
        generator, made in one piece (a seed gives the same bytes)."""
        if length < 0:
            raise KernelError(EINVAL, "negative getrandom length")
        return self.rng.randbytes(min(length, GETRANDOM_MAX))

    def sys_uname(self, proc: Process) -> UtsName:
        return UtsName(machine=self.machine)

    def sys_sysinfo(self, proc: Process) -> SysInfo:
        running = sum(1 for p in self.processes.values()
                      if p.state == "running")
        uptime = (_time.monotonic_ns() - self.boot_monotonic_ns) \
            // 1_000_000_000
        return SysInfo(uptime_s=uptime, procs=running)

    def sys_syslog(self, proc: Process, type_: int,
                   message: str = "") -> int:
        if message:
            self.syslog_buffer.append(message)
        return 0

    def sys_arch_prctl(self, proc: Process, code: int, addr: int) -> int:
        return 0  # TLS base registers are meaningless for Wasm guests

    def sys_chroot(self, proc: Process, path: str) -> int:
        raise KernelError(EPERM, "chroot denied")  # non-root

    def sys_memfd_create(self, proc: Process, name: str, flags: int) -> int:
        from ..vfs import Inode, S_IFREG
        from ..fdtable import OpenFile
        from ..vfs import O_RDWR
        node = Inode(S_IFREG | 0o600, proc.euid, proc.egid)
        file = OpenFile(OpenFile.KIND_REG, O_RDWR, inode=node,
                        path=f"memfd:{name}")
        return proc.fdtable.install(file)

    # eventfd2 / timerfd / epoll live in the event mixin (calls/event.py),
    # backed by the readiness waitqueue layer in kernel/eventpoll.py.
