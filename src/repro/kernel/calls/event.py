"""Event-notification syscalls: epoll, eventfd, timerfd.

These sit on the readiness layer in :mod:`repro.kernel.eventpoll`: watched
files publish events into waitqueues, an :class:`EventPoll` keeps a ready
list per instance, and ``epoll_pwait`` dispatches from that list in
O(ready) — the scalable alternative to ``ppoll``'s O(n) rescan.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errno import EBADF, EINVAL, ELOOP, EPERM, KernelError
from ..eventpoll import (
    EFD_CLOEXEC, EFD_NONBLOCK, EFD_SEMAPHORE, EPOLL_CLOEXEC, EPOLL_CTL_ADD,
    EPOLL_CTL_DEL, EPOLL_CTL_MOD, EventFD, EventPoll, TFD_CLOEXEC,
    TFD_NONBLOCK, TFD_TIMER_ABSTIME, TimerFD,
)
from ..fdtable import OpenFile
from ..process import Process
from ..vfs import O_NONBLOCK, O_RDONLY, O_RDWR


class EventCalls:
    """Mixin with event syscalls; mixed into :class:`Kernel`."""

    # ---- eventfd ----

    def sys_eventfd2(self, proc: Process, initval: int,
                     flags: int = 0) -> int:
        efd = EventFD(initval & 0xFFFFFFFF,
                      semaphore=bool(flags & EFD_SEMAPHORE))
        file = OpenFile(OpenFile.KIND_EVENTFD,
                        O_RDWR | (O_NONBLOCK if flags & EFD_NONBLOCK else 0),
                        obj=efd, path="anon_inode:[eventfd]")
        return proc.fdtable.install(file,
                                    cloexec=bool(flags & EFD_CLOEXEC))

    def sys_eventfd(self, proc: Process, initval: int) -> int:
        return self.sys_eventfd2(proc, initval, 0)

    # ---- timerfd ----

    def sys_timerfd_create(self, proc: Process, clock_id: int,
                           flags: int = 0) -> int:
        if clock_id not in (0, 1, 7):  # REALTIME, MONOTONIC, BOOTTIME
            raise KernelError(EINVAL, f"timerfd clock {clock_id}")
        tfd = TimerFD(clock_id)
        file = OpenFile(OpenFile.KIND_TIMERFD,
                        O_RDONLY | (O_NONBLOCK if flags & TFD_NONBLOCK else 0),
                        obj=tfd, path="anon_inode:[timerfd]")
        return proc.fdtable.install(file,
                                    cloexec=bool(flags & TFD_CLOEXEC))

    def _timerfd(self, proc: Process, fd: int) -> TimerFD:
        file = proc.fdtable.get(fd)
        if file.kind != OpenFile.KIND_TIMERFD:
            raise KernelError(EINVAL, f"fd {fd} is not a timerfd")
        return file.obj

    def sys_timerfd_settime(self, proc: Process, fd: int, flags: int,
                            value_ns: int,
                            interval_ns: int = 0) -> Tuple[int, int]:
        """Arm/disarm; returns the previous (value_ns, interval_ns)."""
        if value_ns < 0 or interval_ns < 0:
            raise KernelError(EINVAL, "negative timer")
        return self._timerfd(proc, fd).settime(
            value_ns, interval_ns,
            absolute=bool(flags & TFD_TIMER_ABSTIME))

    def sys_timerfd_gettime(self, proc: Process, fd: int) -> Tuple[int, int]:
        return self._timerfd(proc, fd).gettime()

    # ---- epoll ----

    def sys_epoll_create1(self, proc: Process, flags: int = 0) -> int:
        counters = self.trace.counters if self.trace is not None else None
        file = OpenFile(OpenFile.KIND_EPOLL, 0,
                        obj=EventPoll(counters=counters),
                        path="anon_inode:[eventpoll]")
        return proc.fdtable.install(file,
                                    cloexec=bool(flags & EPOLL_CLOEXEC))

    def sys_epoll_create(self, proc: Process, size: int) -> int:
        if size <= 0:
            raise KernelError(EINVAL, "epoll_create size must be positive")
        return self.sys_epoll_create1(proc, 0)

    def _epoll(self, proc: Process, epfd: int) -> EventPoll:
        file = proc.fdtable.get(epfd)
        if file.kind != OpenFile.KIND_EPOLL:
            raise KernelError(EINVAL, f"fd {epfd} is not an epoll fd")
        return file.obj

    def sys_epoll_ctl(self, proc: Process, epfd: int, op: int, fd: int,
                      events: int = 0, data: Optional[int] = None) -> int:
        """``data`` is the epoll_event user datum; defaults to ``fd``."""
        ep = self._epoll(proc, epfd)
        if fd == epfd:
            raise KernelError(ELOOP, "epoll fd cannot watch itself")
        target = proc.fdtable.get(fd)  # EBADF if closed
        if data is None:
            data = fd
        if op == EPOLL_CTL_ADD:
            if target.kind in (OpenFile.KIND_REG, OpenFile.KIND_DIR):
                raise KernelError(EPERM, "regular files cannot be epolled")
            ep.add(fd, target, events, data)
        elif op == EPOLL_CTL_MOD:
            ep.modify(fd, events, data)
        elif op == EPOLL_CTL_DEL:
            ep.remove(fd)
        else:
            raise KernelError(EINVAL, f"epoll_ctl op {op}")
        return 0

    def sys_epoll_pwait(self, proc: Process, epfd: int, maxevents: int,
                        timeout_ns: Optional[int] = None,
                        sigmask: Optional[int] = None
                        ) -> List[Tuple[int, int]]:
        """Returns ``[(data, revents)]``, at most ``maxevents`` entries."""
        if maxevents <= 0:
            raise KernelError(EINVAL, "maxevents must be positive")
        ep = self._epoll(proc, epfd)
        old_mask = proc.blocked_mask
        if sigmask is not None:
            proc.blocked_mask = sigmask
        try:
            return self.wait_event(
                proc, lambda: ep.wait_step(maxevents), (ep.wq,),
                timeout_ns=timeout_ns, empty=list)
        finally:
            if sigmask is not None:
                proc.blocked_mask = old_mask

    def sys_epoll_wait(self, proc: Process, epfd: int, maxevents: int,
                       timeout_ms: int = -1) -> List[Tuple[int, int]]:
        timeout_ns = None if timeout_ms < 0 else timeout_ms * 1_000_000
        return self.sys_epoll_pwait(proc, epfd, maxevents, timeout_ns)
