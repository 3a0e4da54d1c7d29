"""The four seeded WALI workloads and their Python reference models.

Each workload turns ``--seed`` into guest inputs (a script, or a request
mix) and, independently, into the outputs a correct guest must produce.
The reference is computed in Python from the inputs alone, never from an
earlier run of the program.  Sizes are fixed; the seed changes only
values and order, so runs of different seeds do the same amount of work.

A repetition is set-up (compile the apps, boot a kernel, load and
instantiate the guests, and for memcached wait until the server is
ready), then the timed phase, then the output check and teardown.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import cc
from repro.apps import APP_SOURCES
from repro.kernel import AF_INET, SOCK_STREAM
from repro.kernel.errno import KernelError
from repro.kernel.signals import SIGKILL
from repro.wali import WaliRuntime

# a guest run or a server start that takes longer than this has stalled
RUN_DEADLINE_S = 60.0
# a memcached request unanswered for this long has stalled (p95 ~ 3 ms)
REQUEST_DEADLINE_S = 2.0

_now = time.perf_counter_ns


def _nospan(name, req=None):
    return nullcontext()


def _compile(name: str):
    # through the module attribute, so the traced run sees the call
    return cc.compile_source(APP_SOURCES[name], name=name)


def _alive(rt: WaliRuntime) -> list:
    return [wp for wp in rt.processes
            if wp.thread is not None and wp.thread.is_alive()]


def _stop(rt: WaliRuntime) -> int:
    """Kill and join every guest thread of this repetition and stop the
    writeback daemon; returns how many guest threads outlived SIGKILL."""
    for wp in _alive(rt):
        wp.proc.generate_signal(SIGKILL)
        wp.join(5.0)
    if rt.kernel.blockdev is not None:
        rt.kernel.blockdev.stop_daemon()
    return len(_alive(rt))


def _i32(x: int) -> int:
    x &= 0xFFFFFFFF
    return x - (1 << 32) if x >= 1 << 31 else x


def _rem_s(a: int, b: int) -> int:
    """wasm ``i32.rem_s``: the remainder takes the dividend's sign."""
    r = abs(a) % abs(b)
    return -r if a < 0 else r


@dataclass
class Rep:
    """One repetition: its timings, its checked outputs and its counters."""
    setup_ns: int = 0
    run_ns: int = 0
    window: tuple = (0, 0)
    ops: int = 0
    latencies_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    stalls: int = 0
    notes: List[str] = field(default_factory=list)
    kernel: Dict[str, float] = field(default_factory=dict)
    # host-speed factor for this repetition's times (run.py calibrate)
    scale: float = 1.0


def kernel_counters(k) -> Dict[str, float]:
    """Scheduler and shared-registry counters, read from outside."""
    cnt = k.trace.counters
    return {
        "blocked_ns": sum(k.blocked_time_ns.values()),
        "wait_ns": sum(k.sched_wait_ns.values()),
        "cache_hit": cnt.get("block.cache_hit"),
        "cache_miss": cnt.get("block.cache_miss"),
        "uring_cqes": cnt.get("uring.completed"),
    }


class Workload:
    """Shared repetition skeleton; subclasses supply the four phases."""

    name = ""

    def rep(self, rec=None) -> Rep:
        out = Rep()
        t0 = _now()
        ctx = self.setup(out)
        t1 = _now()
        out.setup_ns = t1 - t0
        rt = ctx["rt"]
        try:
            before = kernel_counters(rt.kernel)
            self.run(ctx, out, rec.span if rec is not None else _nospan)
            t2 = _now()
            after = kernel_counters(rt.kernel)
            out.run_ns = t2 - t1
            out.window = (t1, t2)
            out.kernel = {key: after[key] - before[key] for key in after}
            self.check(ctx, out)
        finally:
            self.teardown(ctx, out)
            alive = _stop(rt)
            if alive:
                out.stalls += 1
                out.notes.append(f"{self.name}: {alive} guest thread(s) "
                                 f"survived SIGKILL")
        return out

    def teardown(self, ctx, out: Rep) -> None:
        pass


class _BatchWorkload(Workload):
    """A guest that runs a seeded script to exit; its console is checked
    line by line against the reference."""

    app = ""
    ops = 0
    expected_lines: List[str] = []

    def load(self, rt: WaliRuntime, module):
        raise NotImplementedError

    def setup(self, out: Rep) -> dict:
        module = _compile(self.app)
        rt = WaliRuntime()
        return {"rt": rt, "wp": self.load(rt, module)}

    def run(self, ctx, out: Rep, span) -> None:
        wp = ctx["wp"]
        wp.start_in_thread()
        wp.join(RUN_DEADLINE_S)
        if wp.thread.is_alive():
            out.stalls += 1
            out.notes.append(f"{self.name}: guest still running after "
                             f"{RUN_DEADLINE_S:.0f} s")
        out.ops = self.ops

    def check(self, ctx, out: Rep) -> None:
        rt, wp = ctx["rt"], ctx["wp"]
        got_lines = rt.kernel.console_output().decode(
            errors="replace").splitlines()
        want = self.expected_lines
        bad = sum(1 for a, b in zip(got_lines, want) if a != b)
        bad += abs(len(got_lines) - len(want))
        out.attempted += len(want) + 1
        out.failed += min(bad, len(want))
        if wp.exit_status != 0:
            out.failed += 1
            out.notes.append(f"{self.name}: exit status {wp.exit_status}")
        if bad:
            out.notes.append(f"{self.name}: {bad} console line(s) differ "
                             f"from the reference")
        if out.stalls:
            out.failed = out.attempted
        out.latencies_s.append(out.run_ns / 1e9 / max(out.ops, 1))


class Lua(_BatchWorkload):
    """``mini_lua`` runs a seeded nested arithmetic loop; every outer
    pass prints the running i32 sum, which wraps around on purpose."""

    name = "lua"
    app = "mini_lua"
    OUTER, INNER = 2, 100

    def __init__(self, seed: int):
        rng = random.Random(seed)
        # fixed digit counts keep the parse work equal across seeds
        s0 = rng.randrange(100_000, 1_000_000)
        k1 = rng.randrange(100, 1000)
        k2 = rng.randrange(10_001, 100_000) | 1
        m = rng.randrange(1000, 10_000)
        self.script = (
            f"set s {s0}\nset j {self.OUTER}\n"
            "while j\n"
            f"  set i {self.INNER}\n"
            "  while i\n"
            f"    mov t i\n    mul t t {k1}\n    add t t j\n"
            f"    mod t t {m}\n    mul s s {k2}\n    add s s t\n"
            "    subi i 1\n"
            "  end\n"
            "  print s\n  subi j 1\n"
            "end\n").encode()
        expected = []
        s = s0
        for j in range(self.OUTER, 0, -1):
            for i in range(self.INNER, 0, -1):
                t = _rem_s(_i32(_i32(i * k1) + j), m)
                s = _i32(_i32(s * k2) + t)
            expected.append(str(s))
        self.expected_lines = expected
        self.ops = self.OUTER * self.INNER

    def load(self, rt, module):
        rt.kernel.vfs.write_file("/tmp/bench.lua", self.script)
        return rt.load(module, argv=["lua", "/tmp/bench.lua"])


class Sqlite(_BatchWorkload):
    """``mini_sqlite`` runs a seeded insert/get/delete/count script on a
    database under ``/data``, so the block layer and page cache serve
    every ``pread64``/``pwrite64``."""

    name = "sqlite"
    app = "mini_sqlite"
    LOAD, HITS, MISSES, DELETES, INSERTS, COUNTS = 60, 60, 20, 15, 15, 5

    def __init__(self, seed: int):
        rng = random.Random(seed)
        names = rng.sample(range(100_000, 1_000_000),
                           self.LOAD + self.INSERTS + self.MISSES)
        keys = [f"key{n}" for n in names]
        fresh = keys[:self.LOAD + self.INSERTS]
        absent = keys[self.LOAD + self.INSERTS:]
        model: Dict[str, str] = {}
        lines, expected = [], []

        def insert(key):
            value = f"val{rng.randrange(10**8, 10**9)}"
            lines.append(f"insert {key} {value}")
            model[key] = value
            expected.append("OK")

        for key in fresh[:self.LOAD]:
            insert(key)
        # the mixed phase: a fixed count of each kind, in seeded order.
        # Inserts take keys that are not live (new, or deleted earlier):
        # the store appends versions, so a live key is never re-inserted.
        kinds = (["hit"] * self.HITS + ["miss"] * self.MISSES
                 + ["delete"] * self.DELETES + ["insert"] * self.INSERTS
                 + ["count"] * self.COUNTS)
        rng.shuffle(kinds)
        pending = list(fresh[self.LOAD:])
        absent_left = list(absent)
        for kind in kinds:
            if kind == "hit":
                key = rng.choice(sorted(model))
                lines.append(f"get {key}")
                expected.append(model[key])
            elif kind == "miss":
                key = absent_left.pop()
                lines.append(f"get {key}")
                expected.append("(nil)")
            elif kind == "delete":
                key = rng.choice(sorted(model))
                lines.append(f"delete {key}")
                del model[key]
                expected.append("DELETED")
            elif kind == "insert":
                insert(pending.pop())
            else:
                lines.append("count")
                expected.append(str(len(model)))
        lines += ["count", "exit"]
        expected.append(str(len(model)))
        self.script = ("\n".join(lines) + "\n").encode()
        self.expected_lines = expected
        self.ops = len(lines) - 1

    def load(self, rt, module):
        rt.kernel.vfs.write_file("/tmp/bench.sql", self.script)
        return rt.load(module, argv=["sqlite", "/data/bench.db",
                                     "/tmp/bench.sql"])


class Shell(_BatchWorkload):
    """``mini_sh`` runs a seeded script of ``echo``/``cat``/``wc``
    commands with redirections; every command forks, execs an installed
    ``.wasm`` and is reaped by ``wait4``."""

    name = "shell"
    app = "mini_sh"
    COMMANDS, FILES = 40, 4
    WORDS = ("alpha", "bravo", "delta", "echo", "kilo", "lima", "oscar",
             "sierra", "tango", "zulu")
    TOOLS = ("echo", "cat", "wc")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        files = [f"/tmp/f{i}" for i in range(self.FILES)]
        model = {f: b"" for f in files}
        console = bytearray()
        lines = []

        def words():
            return " ".join(rng.choice(self.WORDS)
                            for _ in range(rng.randrange(1, 5)))

        def wc(data: bytes) -> bytes:
            return b"%d %d\n" % (data.count(b"\n"), len(data))

        for f in files:
            w = words()
            lines.append(f"echo {w} > {f}")
            model[f] = (w + "\n").encode()
        while len(lines) < self.COMMANDS:
            f = rng.choice(files)
            kind = rng.randrange(6)
            if kind == 0:
                w = words()
                lines.append(f"echo {w} >> {f}")
                model[f] += (w + "\n").encode()
            elif kind == 1:
                w = words()
                lines.append(f"echo {w} > {f}")
                model[f] = (w + "\n").encode()
            elif kind == 2:
                lines.append(f"cat {f}")
                console += model[f]
            elif kind == 3:
                lines.append(f"wc {f}")
                console += wc(model[f])
            elif kind == 4:
                lines.append(f"wc < {f}")
                console += wc(model[f])
            else:
                dst = rng.choice([g for g in files if g != f])
                lines.append(f"cat {f} >> {dst}")
                model[dst] += model[f]
        self.script = ("\n".join(lines) + "\n").encode()
        self.expected_lines = bytes(console).decode().splitlines()
        self.expected_files = model
        self.ops = len(lines)

    def setup(self, out: Rep) -> dict:
        tools = {name: _compile(name) for name in self.TOOLS}
        ctx = super().setup(out)
        rt = ctx["rt"]
        for name, module in tools.items():
            rt.install_binary(f"/bin/{name}.wasm", module)
        return ctx

    def load(self, rt, module):
        rt.kernel.vfs.write_file("/tmp/bench.sh", self.script)
        return rt.load(module, argv=["sh", "/tmp/bench.sh"])

    def check(self, ctx, out: Rep) -> None:
        rt = ctx["rt"]
        super().check(ctx, out)
        bad = 0
        for path, data in self.expected_files.items():
            try:
                got = rt.kernel.vfs.read_file(path)
            except KernelError:          # a missing file is a wrong output
                got = None
            bad += got != data
        out.attempted += len(self.expected_files)
        out.failed += bad
        if bad:
            out.notes.append(f"shell: {bad} file(s) differ from the "
                             f"reference")
        if out.stalls:
            out.failed = out.attempted


class Memcached(Workload):
    """``mini_memcached -u`` (io_uring mode) serves a closed loop from a
    host-side client: one kernel process on one host thread owns both
    connections, keeps one request in flight on each, and waits for
    replies with ``ppoll``, so no client thread competes with the server
    for the interpreter lock."""

    name = "memcached"
    REQUESTS = 250          # per connection
    CONNS, KEYS, SET_SHARE = 2, 40, 0.3
    PORT = 11211
    POLLIN = 1

    def __init__(self, seed: int, mode: str = "-u",
                 requests: int = REQUESTS):
        self.mode = mode
        self.plans = []
        for c in range(self.CONNS):
            rng = random.Random(seed * 1_000_003 + c)
            model: Dict[str, str] = {}
            plan = []
            for _ in range(requests):
                key = f"c{c}k{rng.randrange(self.KEYS):03d}"
                if rng.random() < self.SET_SHARE:
                    value = f"v{rng.randrange(10**8, 10**9)}"
                    model[key] = value
                    plan.append((f"set {key} {value}\n".encode(),
                                 b"STORED\n"))
                elif key in model:
                    plan.append((f"get {key}\n".encode(),
                                 f"VALUE {model[key]}\n".encode()))
                else:
                    plan.append((f"get {key}\n".encode(), b"NOT_FOUND\n"))
            self.plans.append(plan)
        self.ops = self.CONNS * requests

    def setup(self, out: Rep) -> dict:
        module = _compile("mini_memcached")
        rt = WaliRuntime()
        k = rt.kernel
        server = rt.load(module, argv=["memcached", str(self.PORT),
                                       self.mode])
        server.start_in_thread()
        give_up = time.monotonic() + RUN_DEADLINE_S
        while b"ready" not in k.console_output():
            if time.monotonic() > give_up or not server.thread.is_alive():
                _stop(rt)
                raise RuntimeError("memcached never became ready: "
                                   + k.console_output().decode())
            time.sleep(0.001)
        client = k.create_process(["client"])
        fds = []
        for _ in range(self.CONNS):
            fd = k.call(client, "socket", AF_INET, SOCK_STREAM)
            k.call(client, "connect", fd, ("127.0.0.1", self.PORT))
            fds.append(fd)
        return {"rt": rt, "server": server, "client": client, "fds": fds}

    def run(self, ctx, out: Rep, span) -> None:
        k, proc, fds = ctx["rt"].kernel, ctx["client"], ctx["fds"]
        conn_of = {fd: c for c, fd in enumerate(fds)}
        nxt = [0] * self.CONNS          # index of the request in flight
        sent: List[Optional[float]] = [None] * self.CONNS
        got = [b""] * self.CONNS
        served = wrong = 0

        def send(c: int) -> None:
            req, _ = self.plans[c][nxt[c]]
            sent[c] = time.perf_counter()
            with span("client.sendto", req=c << 20 | nxt[c]):
                k.call(proc, "sendto", fds[c], req)

        try:
            with span("client.loop"):
                for c in range(self.CONNS):
                    send(c)
                while any(t is not None for t in sent):
                    oldest = min(t for t in sent if t is not None)
                    left = oldest + REQUEST_DEADLINE_S - time.perf_counter()
                    if left <= 0:
                        late = [c for c, t in enumerate(sent)
                                if t is not None and t == oldest]
                        out.stalls += 1
                        out.notes.append(
                            f"memcached: stall, connection(s) {late} waited "
                            f"over {REQUEST_DEADLINE_S:.0f} s for a reply; "
                            f"run torn down")
                        break
                    with span("client.ppoll"):
                        ready = k.call(proc, "ppoll",
                                       [(fds[c], self.POLLIN)
                                        for c in range(self.CONNS)
                                        if sent[c] is not None],
                                       int(left * 1e9))
                    done = []
                    for fd, _ in ready:
                        c = conn_of[fd]
                        with span("client.recvfrom", req=c << 20 | nxt[c]):
                            data, _ = k.call(proc, "recvfrom", fd, 256)
                        if not data:
                            out.notes.append(f"memcached: connection {c} "
                                             f"closed by the server")
                            sent[c] = None      # its requests go unserved
                            continue
                        got[c] += data
                        if not got[c].endswith(b"\n"):
                            continue
                        out.latencies_s.append(time.perf_counter() - sent[c])
                        served += 1
                        wrong += got[c] != self.plans[c][nxt[c]][1]
                        got[c] = b""
                        nxt[c] += 1
                        sent[c] = None
                        done.append(c)
                    # the next requests go out together, after every
                    # ready reply is read, so the server wakes once for
                    # them and the client is not left waiting for the
                    # interpreter lock while the server runs
                    for c in done:
                        if nxt[c] < len(self.plans[c]):
                            send(c)
        except KernelError as exc:          # the rest goes unserved
            out.notes.append(f"memcached: client: {exc!r}")
        out.ops = served
        out.attempted += self.ops
        out.failed += wrong + (self.ops - served)
        if wrong:
            out.notes.append(f"memcached: {wrong} wrong repl(ies)")

    def check(self, ctx, out: Rep) -> None:
        pass  # every reply was checked as it arrived

    def teardown(self, ctx, out: Rep) -> None:
        if out.stalls:
            return          # the server is killed instead
        k, server = ctx["rt"].kernel, ctx["server"]
        k.call(ctx["client"], "sendto", ctx["fds"][0], b"shutdown\n")
        server.join(5.0)
        if server.thread.is_alive():
            out.notes.append("memcached: server did not exit on shutdown")


WORKLOADS = {"lua": Lua, "sqlite": Sqlite, "memcached": Memcached,
             "shell": Shell}
