"""Kernel edge cases: time, uname, getdents paging, tracing, procfs
lifecycle, and cross-layer stress (signals under load, deep pipelines)."""

import threading
import time

import pytest

from repro.apps import build, install_all, with_libc
from repro.cc import compile_source
from repro.kernel import AT_FDCWD, Kernel, KernelError, O_RDONLY, SIGUSR1
from repro.wali import WaliRuntime


@pytest.fixture
def k():
    return Kernel()


@pytest.fixture
def proc(k):
    return k.create_process(["t"], {})


class TestTimeAndInfo:
    def test_clock_monotonic_increases(self, k, proc):
        a = k.call(proc, "clock_gettime", 1)
        b = k.call(proc, "clock_gettime", 1)
        assert b >= a > 0

    def test_clock_realtime_reasonable(self, k, proc):
        ns = k.call(proc, "clock_gettime", 0)
        assert ns > 1_600_000_000 * 10**9  # after 2020

    def test_bad_clock_einval(self, k, proc):
        with pytest.raises(KernelError):
            k.call(proc, "clock_gettime", 99)

    def test_nanosleep_sleeps(self, k, proc):
        t0 = time.monotonic()
        k.call(proc, "nanosleep", 30_000_000)  # 30 ms
        assert time.monotonic() - t0 >= 0.025

    def test_nanosleep_negative_einval(self, k, proc):
        with pytest.raises(KernelError):
            k.call(proc, "nanosleep", -5)

    def test_sysinfo_counts_processes(self, k, proc):
        si = k.call(proc, "sysinfo")
        assert si.procs >= 2  # init + proc

    def test_times_accumulates_stime(self, k, proc):
        for _ in range(5):
            k.call(proc, "getpid")
        u, s, _, _ = k.call(proc, "times")
        assert s >= 0


class TestDirentPaging:
    def test_getdents_buffer_paging_via_wali(self):
        """A small guest buffer forces multiple getdents64 calls that
        together enumerate everything exactly once."""
        rt = WaliRuntime()
        rt.kernel.vfs.mkdirs("/tmp/many")
        for i in range(40):
            rt.kernel.vfs.write_file(f"/tmp/many/file{i:02d}", b"")
        mod = compile_source(with_libc(r"""
buffer dents[256];
global seen: i32 = 0;
export func _start() {
    var fd: i32 = open("/tmp/many", O_RDONLY, 0);
    while (1) {
        var n: i32 = i32(SYS_getdents64(fd, dents, 256));
        if (n <= 0) { break; }
        var off: i32 = 0;
        while (off < n) {
            seen = seen + 1;
            off = off + load16u(dents + off + 16);
        }
    }
    exit(seen);
}
"""), name="pager")
        status = rt.run(mod)
        assert status == 42  # 40 files + "." + ".."


class TestProcfsLifecycle:
    def test_proc_dir_removed_after_reap(self, k, proc):
        child = k.call(proc, "fork")
        path = f"/proc/{child.pid}/stat"
        assert k.vfs.exists(path)
        k.call(child, "exit_group", 0)
        k.call(proc, "wait4", child.pid, 0)
        assert not k.vfs.exists(path)

    def test_proc_maps_shows_vmas(self, k, proc):
        from repro.kernel.mm import (
            AddressSpace, MAP_ANONYMOUS, MAP_PRIVATE, PROT_READ,
        )

        proc.mm = AddressSpace(0x10000, 0x100000)
        proc.mm.mmap(0, 8192, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS)
        fd = k.call(proc, "openat", AT_FDCWD, "/proc/self/maps", O_RDONLY, 0)
        content = k.call(proc, "read", fd, 4096).decode()
        assert "r--p" in content

    def test_trace_hooks_fire(self, k, proc):
        from repro.kernel import decode_records

        k.trace.enable()
        k.call(proc, "getpid")
        assert k.trace.counters.get("syscall.getpid") == 1
        exits = [r for r in decode_records(k.trace.buffer.read_step(65536))
                 if r.point == "syscall_exit"]
        assert [(r.pid, r.info, r.arg) for r in exits] == \
            [(proc.pid, "getpid", 0)]


class TestStress:
    def test_signal_storm_under_compute(self):
        """Many async signals land at loop safepoints without corrupting
        guest state — §3.3's consistency requirement."""
        rt = WaliRuntime()
        mod = compile_source(with_libc(r"""
global hits: i32 = 0;
func on_usr1(sig: i32) { hits = hits + 1; }
export func _start() {
    signal(SIGUSR1, funcref(on_usr1));
    var acc: i32 = 0;
    var i: i32 = 0;
    while (i < 400000) { acc = acc + i; i = i + 1; }
    if (acc != 0xa05c12c0) { exit(99); }  // wrapped sum must be intact
    if (hits == 0) { exit(98); }           // at least one delivery landed
    exit(1);
}
"""), name="storm")
        wp = rt.load(mod)
        stop = threading.Event()

        def bombard():
            while not stop.is_set():
                try:
                    rt.kernel.call(rt.kernel.process(1), "kill",
                                   wp.proc.pid, SIGUSR1)
                except KernelError:
                    return
                time.sleep(0.002)

        t = threading.Thread(target=bombard, daemon=True)
        t.start()
        status = wp.run()
        stop.set()
        t.join(1)
        assert status == 1  # handlers ran, accumulator uncorrupted

    def test_deep_pipeline_chain(self):
        rt = WaliRuntime()
        install_all(rt, ["cat", "wc", "echo"])
        rt.kernel.vfs.write_file("/tmp/d", b"abc\n" * 10)
        rt.kernel.vfs.write_file(
            "/tmp/s.sh",
            b"cat /tmp/d | cat\ncat /tmp/d | wc\nexit 0\n")
        assert rt.run(build("mini_sh"), argv=["sh", "/tmp/s.sh"]) == 0
        out = rt.kernel.console_output()
        assert out.count(b"abc") == 10
        assert b"10 40" in out

    def test_many_sequential_forks(self):
        rt = WaliRuntime()
        mod = compile_source(with_libc(r"""
export func _start() {
    var i: i32 = 0;
    var sum: i32 = 0;
    while (i < 6) {
        var pid: i32 = fork();
        if (pid == 0) { exit(i); }
        waitpid(pid, __io_buf);
        sum = sum + ((load32(__io_buf) >> 8) & 255);
        i = i + 1;
    }
    exit(sum);
}
"""), name="forker")
        assert rt.run(mod) == 0 + 1 + 2 + 3 + 4 + 5

    def test_concurrent_guests_share_kernel(self):
        rt = WaliRuntime()
        from repro.apps.lua import fib_script

        rt.kernel.vfs.write_file("/tmp/a.lua", fib_script(15))
        rt.kernel.vfs.write_file("/tmp/b.lua", fib_script(16))
        wa = rt.load(build("mini_lua"), argv=["lua", "/tmp/a.lua"])
        wb = rt.load(build("mini_lua"), argv=["lua", "/tmp/b.lua"])
        wa.start_in_thread()
        wb.start_in_thread()
        wa.join(20)
        wb.join(20)
        assert wa.exit_status == 0 and wb.exit_status == 0
        out = rt.kernel.console_output()
        assert b"610" in out and b"987" in out
