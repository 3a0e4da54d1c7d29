"""``repro.kernel`` — the virtual Linux substrate WALI targets.

A self-contained, in-process model of the Linux userspace ABI: VFS (+procfs,
devices), file descriptors and pipes, processes/threads with clone-flag
resource sharing, signals, the mmap family, futexes, loopback sockets, and
per-ISA syscall number tables.
"""

from .arch import (
    AARCH64, ARCH_SYSCALLS, ARCHES, LEGACY_EQUIVALENTS, RISCV64, X86_64,
    arch_specific, common_syscalls, isa_similarity_report, syscall_names,
    union_syscalls,
)
from .block import (
    BlockFS, Disk, DropCachesDevice, FileMapping, VMKnobDevice,
    WritebackDaemon, create_blockfs,
)
from .errno import KernelError, errno_name
from .eventpoll import (
    EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD, EPOLLERR, EPOLLET,
    EPOLLHUP, EPOLLIN, EPOLLONESHOT, EPOLLOUT, EPOLLRDHUP, EventFD,
    EventPoll, TimerFD, WaitQueue,
)
from .fdtable import FDTable, OpenFile, Pipe
from .inotify import (
    IN_ALL_EVENTS, IN_ATTRIB, IN_CLOSE_NOWRITE, IN_CLOSE_WRITE, IN_CREATE,
    IN_DELETE, IN_DELETE_SELF, IN_IGNORED, IN_ISDIR, IN_MASK_ADD, IN_MODIFY,
    IN_MOVE_SELF, IN_MOVED_FROM, IN_MOVED_TO, IN_NONBLOCK, IN_ONESHOT,
    IN_ONLYDIR, IN_Q_OVERFLOW, Inotify, InotifyEvent, Watch, decode_events,
    fsnotify, fsnotify_content,
)
from .calls.proc import (
    FUTEX_LOCK_PI, FUTEX_PRIVATE_FLAG, FUTEX_UNLOCK_PI, FUTEX_WAIT,
    FUTEX_WAKE,
)
from .kernel import Kernel
from .mm import (
    AddressSpace, MAP_ANONYMOUS, MAP_FIXED, MAP_PRIVATE, MAP_SHARED,
    MREMAP_MAYMOVE, PROT_EXEC, PROT_NONE, PROT_READ, PROT_WRITE, VMA,
)
from .process import (
    CLONE_FILES, CLONE_FS, CLONE_SIGHAND, CLONE_THREAD, CLONE_VM, Process,
    RLIMIT_NOFILE, RLIMIT_STACK, WNOHANG,
)
from .signals import (
    NSIG, SFD_CLOEXEC, SFD_NONBLOCK, SIG_BLOCK, SIG_DFL, SIG_IGN,
    SIG_SETMASK, SIG_UNBLOCK, SIGALRM, SIGCHLD, SIGINT, SIGKILL, SIGPIPE,
    SIGNALFD_SIGINFO_SIZE, SIGSEGV, SIGTERM, SIGUSR1, SIGUSR2, SigAction,
    SignalFD, decode_siginfo, encode_siginfo, sig_bit,
)
from .net import (
    AF_INET, AF_UNIX, HostBackend, LoopbackBackend, NetBackend, PacketTap,
    SOCK_DGRAM,
    SOCK_STREAM, StreamBuffer, WanBackend, create_backend,
)
from .perf import (
    PERF_EVENT_IOC_DISABLE, PERF_EVENT_IOC_ENABLE, PERF_EVENT_IOC_RESET,
    PERF_RECORD_LOST, PERF_RECORD_SAMPLE, PERF_TYPE_COUNTER,
    PERF_TYPE_SAMPLING, PERF_TYPE_TRACEPOINT, PerfAttr, PerfRing,
    PerfSample, PerfSubsystem, decode_perf_records,
)
from .sched import (
    BackgroundSpinners, SCHED_BLOCKED, SCHED_DEAD, SCHED_NEW, SCHED_RUNNABLE,
    SCHED_RUNNING, SchedEntity, Scheduler, create_scheduler, nice_to_weight,
)
from .trace import (
    CounterRegistry, KernelTrace, TRACE_RECORD_SIZE, TRACE_SCHEMAS,
    TRACEPOINTS, TraceBuffer, TraceRecord, TypedTraceRecord, create_trace,
    decode_records, decode_typed_records, hist_bucket,
)
from .uring import (
    CQE, IOSQE_CQE_SKIP_SUCCESS, IOSQE_FIXED_BUFFER, IOSQE_IO_LINK,
    IORING_ACCEPT_MULTISHOT, IORING_CQE_BUFFER_SHIFT, IORING_CQE_F_BUFFER,
    IORING_CQE_F_MORE, IORING_ENTER_GETEVENTS, IORING_ENTER_SQ_WAKEUP,
    IORING_ENTER_TIMEOUT_MS,
    IORING_FSYNC_DATASYNC, IORING_OP_ACCEPT, IORING_OP_FSYNC,
    IORING_OP_NOP, IORING_OP_POLL_ADD, IORING_OP_READ,
    IORING_OP_READ_FIXED, IORING_OP_RECV, IORING_OP_SEND,
    IORING_OP_TIMEOUT, IORING_OP_WRITE, IORING_RECV_MULTISHOT,
    IORING_REGISTER_BUFFERS, IORING_REGISTER_RING, IORING_SETUP_SQPOLL,
    IORING_SQ_CQ_OVERFLOW, IORING_SQ_NEED_WAKEUP, IoURing, SQE, SQPoller,
)
from .vfs import (
    AT_FDCWD, Inode, O_APPEND, O_CLOEXEC, O_CREAT, O_DIRECT, O_DSYNC,
    O_EXCL, O_NONBLOCK, O_RDONLY, O_RDWR, O_SYNC, O_TRUNC, O_WRONLY,
    S_IFDIR, S_IFREG, VFS,
)

__all__ = [
    "IN_ALL_EVENTS", "IN_ATTRIB", "IN_CLOSE_NOWRITE", "IN_CLOSE_WRITE",
    "IN_CREATE", "IN_DELETE", "IN_DELETE_SELF", "IN_IGNORED", "IN_ISDIR",
    "IN_MASK_ADD", "IN_MODIFY", "IN_MOVE_SELF", "IN_MOVED_FROM",
    "IN_MOVED_TO", "IN_NONBLOCK", "IN_ONESHOT", "IN_ONLYDIR",
    "IN_Q_OVERFLOW", "Inotify", "InotifyEvent", "Watch", "decode_events",
    "fsnotify", "fsnotify_content",
    "BlockFS", "Disk", "DropCachesDevice", "FileMapping", "VMKnobDevice",
    "WritebackDaemon", "create_blockfs",
    "O_DIRECT", "O_DSYNC", "O_SYNC",
    "IORING_FSYNC_DATASYNC", "IORING_OP_FSYNC",
    "SFD_CLOEXEC", "SFD_NONBLOCK", "SIGNALFD_SIGINFO_SIZE", "SignalFD",
    "decode_siginfo", "encode_siginfo",
    "AARCH64", "AF_INET", "AF_UNIX", "ARCHES", "ARCH_SYSCALLS", "AT_FDCWD",
    "AddressSpace", "CLONE_FILES", "CLONE_FS", "CLONE_SIGHAND",
    "CLONE_THREAD", "CLONE_VM", "CQE", "EPOLLERR", "EPOLLET", "EPOLLHUP",
    "EPOLLIN",
    "IORING_ACCEPT_MULTISHOT", "IORING_CQE_BUFFER_SHIFT",
    "IORING_CQE_F_BUFFER", "IORING_CQE_F_MORE",
    "IORING_ENTER_GETEVENTS", "IORING_ENTER_SQ_WAKEUP",
    "IORING_ENTER_TIMEOUT_MS", "IORING_OP_ACCEPT",
    "IORING_OP_NOP", "IORING_OP_POLL_ADD", "IORING_OP_READ",
    "IORING_OP_READ_FIXED", "IORING_OP_RECV",
    "IORING_OP_SEND", "IORING_OP_TIMEOUT", "IORING_OP_WRITE",
    "IORING_RECV_MULTISHOT", "IORING_REGISTER_BUFFERS",
    "IORING_REGISTER_RING", "IORING_SETUP_SQPOLL",
    "IORING_SQ_CQ_OVERFLOW", "IORING_SQ_NEED_WAKEUP",
    "IOSQE_CQE_SKIP_SUCCESS", "IOSQE_FIXED_BUFFER", "IOSQE_IO_LINK",
    "IoURing", "SQE", "SQPoller",
    "EPOLLONESHOT", "EPOLLOUT", "EPOLLRDHUP", "EPOLL_CTL_ADD",
    "EPOLL_CTL_DEL", "EPOLL_CTL_MOD", "EventFD", "EventPoll", "FDTable",
    "HostBackend", "Inode", "Kernel", "KernelError",
    "LEGACY_EQUIVALENTS", "LoopbackBackend", "MAP_ANONYMOUS", "MAP_FIXED",
    "MAP_PRIVATE",
    "MAP_SHARED", "MREMAP_MAYMOVE", "NSIG", "NetBackend",
    "O_APPEND", "PacketTap",
    "O_CLOEXEC", "O_CREAT", "O_EXCL", "O_NONBLOCK", "O_RDONLY", "O_RDWR",
    "O_TRUNC", "O_WRONLY", "OpenFile", "PROT_EXEC", "PROT_NONE", "PROT_READ",
    "PROT_WRITE", "Pipe", "Process", "RISCV64", "RLIMIT_NOFILE",
    "RLIMIT_STACK", "S_IFDIR", "S_IFREG", "SIGALRM", "SIGCHLD", "SIGINT",
    "SIGKILL", "SIGPIPE", "SIGSEGV", "SIGTERM", "SIGUSR1", "SIGUSR2",
    "SIG_BLOCK", "SIG_DFL", "SIG_IGN", "SIG_SETMASK", "SIG_UNBLOCK",
    "SOCK_DGRAM", "SOCK_STREAM", "SigAction", "StreamBuffer", "TimerFD",
    "BackgroundSpinners", "SCHED_BLOCKED", "SCHED_DEAD", "SCHED_NEW",
    "SCHED_RUNNABLE", "SCHED_RUNNING", "SchedEntity", "Scheduler",
    "create_scheduler", "nice_to_weight",
    "FUTEX_LOCK_PI", "FUTEX_PRIVATE_FLAG", "FUTEX_UNLOCK_PI", "FUTEX_WAIT",
    "FUTEX_WAKE",
    "CounterRegistry", "KernelTrace", "TRACEPOINTS", "TRACE_RECORD_SIZE",
    "TRACE_SCHEMAS", "TraceBuffer", "TraceRecord", "TypedTraceRecord",
    "create_trace", "decode_records", "decode_typed_records",
    "hist_bucket",
    "PERF_EVENT_IOC_DISABLE", "PERF_EVENT_IOC_ENABLE",
    "PERF_EVENT_IOC_RESET", "PERF_RECORD_LOST", "PERF_RECORD_SAMPLE",
    "PERF_TYPE_COUNTER", "PERF_TYPE_SAMPLING", "PERF_TYPE_TRACEPOINT",
    "PerfAttr", "PerfRing", "PerfSample", "PerfSubsystem",
    "decode_perf_records",
    "VFS", "VMA",
    "WaitQueue", "WNOHANG", "WanBackend",
    "X86_64", "arch_specific", "common_syscalls", "create_backend",
    "errno_name",
    "isa_similarity_report", "sig_bit", "syscall_names", "union_syscalls",
]
