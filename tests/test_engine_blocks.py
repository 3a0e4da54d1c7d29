"""Differential tests: the block engine against the per-op reference loop.

``Machine.run`` runs hot blocks as generated Python functions
(``repro.wasm.blocks``); with ``fuel`` set it runs the per-op loop, which
stays the reference.  Every test here runs the same guest both ways and
requires the same observable behaviour: results, traps, console bytes,
exit statuses, syscall sequences and the exact ``Machine.steps`` count.
Most tests compile blocks on their first entry (``HOT_BLOCK_ENTRIES`` = 1)
so that the block engine runs nearly all the code.
"""

import collections
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import APP_SOURCES, build, install_all, with_libc
from repro.apps.lua import arith_benchmark_script
from repro.cc import compile_source
from repro.kernel.kernel import Kernel
from repro.wali import WaliRuntime
from repro.wasm import F64, I32, ModuleBuilder, instantiate
from repro.wasm import interp
from repro.wasm.compile import compile_instance
from repro.wasm.errors import Trap
from repro.wasm.interp import Machine

BLOCKS, REFERENCE = "blocks", "reference"


@pytest.fixture
def hot_at_once(monkeypatch):
    monkeypatch.setattr(interp, "HOT_BLOCK_ENTRIES", 1)


def _reference_run(self, min_depth=0):
    self._run_ops(min_depth)


def _compiled_blocks(funcs) -> int:
    return sum(1 for f in funcs for b in (getattr(f, "code", None) and
                                          f.code.blocks or ())
               if b.__class__ is tuple)


# --------------------------------------------------------------------------
# every guest app, both engines
# --------------------------------------------------------------------------

# app -> (program, argv, files, server program + argv or None)
_SCENARIOS = {
    "echo": ("echo", ["echo", "a", "b"], {}, None),
    "cat": ("cat", ["cat", "/tmp/a"], {"/tmp/a": b"x\ny\n"}, None),
    "true": ("true", ["true"], {}, None),
    "false": ("false", ["false"], {}, None),
    "wc": ("wc", ["wc", "/tmp/a"], {"/tmp/a": b"x y\nz\n"}, None),
    "rle": ("rle", ["rle", "/tmp/a"], {"/tmp/a": b"aaabbbbbbcd" * 20}, None),
    "mini_sh": ("mini_sh", ["sh", "/tmp/s.sh"], {
        "/tmp/s.sh": b"echo hi > /tmp/o\ncat /tmp/o\nwc < /tmp/o\nexit 3\n"},
        None),
    "mini_lua": ("mini_lua", ["lua", "/tmp/s.lua"],
                 {"/tmp/s.lua": arith_benchmark_script(40)}, None),
    "mini_sqlite": ("mini_sqlite", ["db", "/tmp/t.db", "/tmp/s"], {
        "/tmp/s": b"insert a 1\ninsert b 2\nget a\ndelete a\ncount\nexit\n"},
        None),
    "mini_memcached": ("memcached_client", ["client", "11411", "3", "1"], {},
                       ("mini_memcached", ["memcached", "11411"])),
    "memcached_client": ("memcached_client", ["client", "11412", "6", "1"],
                         {}, ("mini_memcached", ["memcached", "11412"])),
    "event_echo": ("event_echo", ["event_echo", "2", "2"], {}, None),
    "mqtt_broker": ("paho_bench", ["bench", "11883", "3", "16", "1"], {},
                    ("mqtt_broker", ["broker", "11883"])),
    "paho_bench": ("paho_bench", ["bench", "11884", "2", "40", "1"], {},
                   ("mqtt_broker", ["broker", "11884"])),
    "watchd": ("watchd", ["watchd", "2", "-u"], {}, None),
    "ktop": ("ktop", ["ktop", "2"], {}, None),
    "perf": ("perf", ["perf", "stat", "instructions", "50"], {}, None),
}


def _run_app(app: str, engine: str, monkeypatch):
    """Console, exit status, per-process syscalls and steps of one run."""
    program, argv, files, server = _SCENARIOS[app]
    calls = collections.defaultdict(list)
    kernel_call = Kernel.call

    def recording_call(k, proc, name, *args, **kwargs):
        calls[proc.pid].append(name)
        return kernel_call(k, proc, name, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(Kernel, "call", recording_call)
        if engine == REFERENCE:
            mp.setattr(Machine, "run", _reference_run)
        rt = WaliRuntime()
        install_all(rt, ["echo", "cat", "wc"])
        for path, data in files.items():
            rt.kernel.vfs.write_file(path, data)
        if server is not None:
            srv = rt.load(build(server[0]), argv=server[1])
            srv.start_in_thread()
            deadline = time.monotonic() + 30
            while b"ready" not in rt.kernel.console_output():
                assert time.monotonic() < deadline, "server never ready"
                time.sleep(0.002)
        status = rt.run(build(program), argv=argv)
        for wp in rt.processes:
            wp.join(30)
    return {
        "status": status,
        "console": rt.kernel.console_output(),
        "syscalls": dict(calls),
        "steps": [(wp.proc.pid, wp.machine.steps) for wp in rt.processes],
        "exits": [wp.exit_status for wp in rt.processes],
        "blocks": sum(_compiled_blocks(wp.instance.funcs)
                      for wp in rt.processes),
    }


# These run guest threads side by side (a server and its client, or a
# watcher and a writer thread).  Which of them gets to a syscall first
# follows the host's thread timing, so their syscall sequences (an extra
# epoll_pwait, a contended futex) and with them their step counts differ
# between two runs of the same engine; only their output is compared.
_CONCURRENT = {"mini_memcached", "memcached_client", "mqtt_broker",
               "paho_bench", "watchd"}


def test_scenarios_cover_every_app():
    assert sorted(_SCENARIOS) == sorted(APP_SOURCES)


@pytest.mark.parametrize("app", sorted(APP_SOURCES))
def test_app_runs_identically(app, hot_at_once, monkeypatch):
    blocks = _run_app(app, BLOCKS, monkeypatch)
    ref = _run_app(app, REFERENCE, monkeypatch)
    assert blocks["blocks"] > 0 and ref["blocks"] == 0
    keys = ("status", "console", "exits")
    if app not in _CONCURRENT:
        keys += ("syscalls", "steps")
    for key in keys:
        assert blocks[key] == ref[key], key


# --------------------------------------------------------------------------
# generated branchy programs
# --------------------------------------------------------------------------

# the dividing ops and far offsets can trap: they are drawn rarely, so that
# most programs run to the end
_BINOPS = ("i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or", "i32.xor",
           "i32.shl", "i32.shr_s", "i32.shr_u", "i32.rotl", "i32.rotr",
           "i32.lt_s", "i32.ge_u", "i32.gt_s", "i32.eq", "i32.ne") * 4 + (
           "i32.div_s", "i32.div_u", "i32.rem_s", "i32.rem_u")
_FAR = 65400
_UNOPS = ("i32.eqz", "i32.clz", "i32.ctz", "i32.popcnt", "i32.extend8_s",
          "i32.extend16_s")
_BINOPS64 = ("i64.add", "i64.sub", "i64.mul", "i64.and", "i64.xor",
             "i64.shl", "i64.shr_s", "i64.rotr") * 4 + ("i64.div_s",
                                                          "i64.rem_u")
_LOADS64 = (("i64.load", 3), ("i64.load8_s", 0), ("i64.load16_s", 1),
            ("i64.load32_u", 2))
_NVARS = 4          # 2 params + 2 locals; loop counters follow
_MAX_NEST = 3


def _address(rnd, depth: int) -> list:
    return _expr(rnd, depth) + [("i32.const", 255), ("i32.and",)]


def _expr64(rnd, depth: int) -> list:
    kind = rnd.randrange(5 if depth < 3 else 2)
    if kind == 0:
        return [("i64.const", rnd.choice((0, 1, -1, 2**63 - 1, -2**63,
                                          rnd.randrange(-2**63, 2**63))))]
    if kind == 1:
        return _expr(rnd, depth + 1) + [
            (rnd.choice(("i64.extend_i32_s", "i64.extend_i32_u")),)]
    if kind == 2:
        return _expr64(rnd, depth + 1) + _expr64(rnd, depth + 1) + \
            [(rnd.choice(_BINOPS64),)]
    if kind == 3:
        return _expr64(rnd, depth + 1) + [("i64.extend32_s",)]
    return _address(rnd, depth + 1) + [(*rnd.choice(_LOADS64),
                                        rnd.choice((0,) * 9 + (_FAR,)))]


def _expr(rnd, depth: int) -> list:
    kind = rnd.randrange(11 if depth < 3 else 2)
    if kind == 0:
        return [("i32.const", rnd.choice(
            (0, 1, 2, 7, -1, 255, 2**31 - 1, rnd.randrange(-2**31, 2**31))))]
    if kind == 1:
        return [("local.get", rnd.randrange(_NVARS))]
    if kind in (2, 3):
        return _expr(rnd, depth + 1) + _expr(rnd, depth + 1) + \
            [(rnd.choice(_BINOPS),)]
    if kind == 4:
        return _expr(rnd, depth + 1) + [(rnd.choice(_UNOPS),)]
    if kind == 5:
        offset = rnd.choice((0, 3) * 5 + (_FAR,))
        load = rnd.choice((("i32.load", 2), ("i32.load8_s", 0),
                           ("i32.load16_u", 1)))
        return _address(rnd, depth + 1) + [(*load, offset)]
    if kind == 6:
        return _expr(rnd, depth + 1) + _expr(rnd, depth + 1) + \
            _expr(rnd, depth + 1) + [("select",)]
    if kind == 7:
        # a value block left early by br_if (the branch keeps one value)
        return [("block", I32, _expr(rnd, depth + 1) +
                 _expr(rnd, depth + 1) + [("br_if", 0), ("drop",)] +
                 _expr(rnd, depth + 1))]
    if kind == 8:
        # taken, the branch also drops the value under the one it keeps
        return [("block", I32, _expr(rnd, depth + 1) +
                 _expr(rnd, depth + 1) + _expr(rnd, depth + 1) +
                 [("br_if", 0), (rnd.choice(_BINOPS),)])]
    if kind == 9:
        return _expr64(rnd, depth + 1) + _expr64(rnd, depth + 1) + \
            [(rnd.choice(("i64.lt_s", "i64.ge_u", "i64.ne")),)]
    if kind == 10:
        return _expr64(rnd, depth + 1) + [("i32.wrap_i64",)]
    return [("global.get", 0)]


def _stmts(rnd, nest: int) -> list:
    out = []
    for _ in range(rnd.randrange(1, 4)):
        kind = rnd.randrange(10 if nest < _MAX_NEST else 4)
        if kind == 0:
            out += _expr(rnd, 0) + [("local.set", rnd.randrange(_NVARS))]
        elif kind == 1:
            out += _address(rnd, 1) + _expr(rnd, 1) + [
                (rnd.choice(("i32.store", "i32.store8", "i32.store16")), 0,
                 rnd.choice((0, 4) * 5 + (_FAR,)))]
        elif kind == 2:
            out += _address(rnd, 1) + _expr64(rnd, 1) + [
                (rnd.choice(("i64.store", "i64.store32")), 0,
                 rnd.choice((0, 8)))]
        elif kind == 3:
            out += _expr(rnd, 0) + [("global.set", 0)]
        elif kind == 8:
            # br_table out of three nested blocks, each with its own tail
            inner = ("block", None, _expr(rnd, 1) + [("br_table", [0, 1], 2)])
            middle = ("block", None, [inner] + _stmts(rnd, nest + 1))
            out.append(("block", None, [middle] + _stmts(rnd, nest + 1)))
        elif kind == 4:
            out += _expr(rnd, 0) + [("if", None, _stmts(rnd, nest + 1),
                                     _stmts(rnd, nest + 1))]
        elif kind == 5:
            out.append(("block", None, _stmts(rnd, nest + 1) +
                        _expr(rnd, 1) + [("br_if", 0)] +
                        _stmts(rnd, nest + 1)))
        elif kind == 6:
            out.append(("block", None, _stmts(rnd, nest + 1) +
                        _expr(rnd, 1) + [("if", None, [("br", 1)], [])] +
                        _stmts(rnd, nest + 1)))
        else:
            counter = _NVARS + nest
            out += [("i32.const", rnd.randrange(1, 5)),
                    ("local.set", counter),
                    ("loop", None, _stmts(rnd, nest + 1) + [
                        ("local.get", counter), ("i32.const", 1),
                        ("i32.sub",), ("local.tee", counter),
                        ("br_if", 0)])]
    return out


def _program(rnd):
    mb = ModuleBuilder("gen")
    mb.add_memory(1, 1)
    mb.add_global(I32, rnd.randrange(2**32))
    f = mb.func("f", params=[I32, I32], results=[I32], export=True)
    for _ in range(_NVARS - 2 + _MAX_NEST):
        f.add_local(I32)
    for instr in _stmts(rnd, 0):
        f.emit(instr)
    for i in range(_NVARS):
        f.local_get(i)
    for _ in range(_NVARS - 1):
        f.op("i32.xor")
    f.end()
    return mb.build()


def _outcome(module, engine: str, args):
    inst = instantiate(module)
    m = inst.machine
    if engine == REFERENCE:
        m.fuel = 10**9
    try:
        result = m.invoke(inst.func_by_name("f"), list(args))
    except Trap as exc:
        result = type(exc).__name__
    return (result, m.steps, bytes(inst.memory.data[:512]),
            inst.globals[0].value)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 2**32 - 1),
       st.integers(0, 2**32 - 1))
def test_generated_programs_agree(rnd, x, y):
    module = _program(rnd)
    old = interp.HOT_BLOCK_ENTRIES
    interp.HOT_BLOCK_ENTRIES = 1
    try:
        blocks = _outcome(module, BLOCKS, (x, y))
    finally:
        interp.HOT_BLOCK_ENTRIES = old
    assert blocks == _outcome(module, REFERENCE, (x, y))


# --------------------------------------------------------------------------
# traps, fuel and safepoints
# --------------------------------------------------------------------------

def _looping(body) -> "Module":
    """``f(n)``: ``for i in range(n)`` run ``body`` (which sees ``i`` as
    local 1 and adds its value to local 2); returns local 2."""
    mb = ModuleBuilder("loop")
    mb.add_memory(1, 1)
    f = mb.func("f", params=[I32], results=[I32], export=True)
    f.add_local(I32)
    f.add_local(I32)
    with f.block():
        with f.loop():
            f.local_get(1).local_get(0).op("i32.ge_u").br_if(1)
            for instr in body:
                f.emit(instr)
            f.local_get(2).op("i32.add").local_set(2)
            f.local_get(1).i32_const(1).op("i32.add").local_set(1)
            f.br(0)
    f.local_get(2)
    f.end()
    return mb.build()


# each trap comes at i == 30, after the loop's blocks have turned hot
_TRAPS = {
    "TrapOutOfBounds": [("local.get", 1), ("i32.const", 2200),
                        ("i32.mul",), ("i32.load", 2, 0)],
    "TrapDivByZero": [("local.get", 1), ("i32.const", 7), ("i32.add",),
                      ("i32.const", 30), ("local.get", 1), ("i32.sub",),
                      ("i32.div_u",)],
    "TrapUnreachable": [("local.get", 1), ("i32.const", 30), ("i32.eq",),
                        ("if", None, [("unreachable",)], []),
                        ("local.get", 1)],
}


@pytest.mark.parametrize("trap", sorted(_TRAPS))
def test_mid_block_trap_same_class_and_steps(trap):
    module = _looping(_TRAPS[trap])
    outcomes = []
    for engine in (BLOCKS, REFERENCE):
        inst = instantiate(module)
        m = inst.machine
        if engine == REFERENCE:
            m.fuel = 10**9
        with pytest.raises(Trap) as info:
            m.invoke(inst.func_by_name("f"), [100])
        outcomes.append((type(info.value).__name__, m.steps))
        if engine == BLOCKS:
            assert _compiled_blocks(inst.funcs) > 0
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == trap


def test_fuel_exhausts_at_the_step_the_block_engine_counts():
    module = _looping([("local.get", 1), ("i32.const", 3), ("i32.mul",)])
    inst = instantiate(module)
    m = inst.machine
    f = inst.func_by_name("f")
    result = m.invoke(f, [50])
    total = m.steps
    assert _compiled_blocks(inst.funcs) > 0
    # fuel runs the reference loop, even over code with compiled blocks
    m.steps = 0
    m.fuel = total
    assert m.invoke(f, [50]) == result and m.steps == total
    m.steps = 0
    m.fuel = total - 1
    with pytest.raises(Trap, match="fuel"):
        m.invoke(f, [50])
    assert m.steps == total


def test_signal_arrives_at_the_same_poll():
    """A poll hook that re-enters the machine (how signals are delivered)
    fires at the same step, and the handler's effect lands at the same
    point of the loop."""
    mb = ModuleBuilder("sig")
    g = mb.add_global(I32, 0)
    h = mb.func("handler", params=[], results=[], export=True)
    h.global_get(g).i32_const(1000).op("i32.add").global_set(g)
    h.end()
    body = [("global.get", g), ("local.get", 1), ("i32.mul",)]
    f = mb.func("f", params=[I32], results=[I32], export=True)
    f.add_local(I32)
    f.add_local(I32)
    with f.block():
        with f.loop():
            f.local_get(1).local_get(0).op("i32.ge_u").br_if(1)
            for instr in body:
                f.emit(instr)
            f.local_get(2).op("i32.add").local_set(2)
            f.local_get(1).i32_const(1).op("i32.add").local_set(1)
            f.br(0)
    f.local_get(2)
    f.end()
    module = mb.build()

    outcomes = []
    for engine in (BLOCKS, REFERENCE):
        inst = instantiate(module)
        m = inst.machine
        if engine == REFERENCE:
            m.fuel = 10**9
        polls, delivered = [0], []

        def hook():
            polls[0] += 1
            if polls[0] == 37:
                delivered.append(m.steps)
                m.reenter(inst.func_by_name("handler"))

        m.poll_hook = hook
        result = m.invoke(inst.func_by_name("f"), [60])
        outcomes.append((result, delivered, m.steps, polls[0]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1]


_FORK_LOOP = r"""
export func _start() {
    var i: i32 = 0;
    var sum: i32 = 0;
    var pid: i32 = 0 - 1;
    while (i < 60) {
        sum = sum + i * 3;
        if (i == 25) { pid = fork(); }
        i = i + 1;
    }
    if (pid == 0) {
        print("child ");
        print_int(sum);
        println("");
        exit(7);
    }
    waitpid(pid, __io_buf);
    var code: i32 = (load32(__io_buf) >> 8) & 255;
    print("parent ");
    print_int(sum);
    print(" ");
    print_int(code);
    println("");
    exit(0);
}
"""


def _fork_run(engine: str, monkeypatch):
    with monkeypatch.context() as mp:
        if engine == REFERENCE:
            mp.setattr(Machine, "run", _reference_run)
        rt = WaliRuntime()
        module = compile_source(with_libc(_FORK_LOOP), name="forkloop")
        status = rt.run(module, argv=["forkloop"])
        for p in rt.processes:
            p.join(10)
    return (status, rt.kernel.console_output(),
            [(p.exit_status, p.machine.steps) for p in rt.processes],
            _compiled_blocks(rt.processes[-1].instance.funcs))


def test_fork_in_the_middle_of_a_loop(hot_at_once, monkeypatch):
    """The child of a fork taken inside a hot loop resumes the loop from
    the parent's machine state and finishes it."""
    blocks = _fork_run(BLOCKS, monkeypatch)
    ref = _fork_run(REFERENCE, monkeypatch)
    assert blocks[:3] == ref[:3]
    assert blocks[3] > 0 and ref[3] == 0
    want = sum(i * 3 for i in range(60))
    assert sorted(blocks[1].decode().splitlines()) == \
        [f"child {want}", f"parent {want} 7"]
    assert [status for status, _ in blocks[2]] == [0, 7]


def test_perf_instructions_count_is_engine_independent(monkeypatch):
    counts = []
    for engine in (BLOCKS, REFERENCE):
        with monkeypatch.context() as mp:
            if engine == REFERENCE:
                mp.setattr(Machine, "run", _reference_run)
            rt = WaliRuntime()
            assert rt.run(build("perf"),
                          argv=["perf", "stat", "instructions", "300"]) == 0
        counts.append(rt.kernel.console_output())
    assert counts[0] == counts[1]
    assert int(counts[0].split()[-1]) > 0


# --------------------------------------------------------------------------
# the image cache
# --------------------------------------------------------------------------

def test_execve_reuses_decoded_image_and_its_blocks(monkeypatch):
    import repro.wali.runtime as runtime

    decodes = []
    decode = runtime.decode_module

    def counting_decode(data, name=""):
        decodes.append(name)
        return decode(data, name=name)

    monkeypatch.setattr(runtime, "decode_module", counting_decode)
    rt = WaliRuntime()
    install_all(rt, ["cat"])
    rt.kernel.vfs.write_file("/tmp/in", b"line\n")
    rt.kernel.vfs.write_file("/tmp/s.sh", b"cat /tmp/in\n" * 5)
    assert rt.run(build("mini_sh"), argv=["sh", "/tmp/s.sh"]) == 0
    for p in rt.processes:
        p.join(10)
    assert rt.kernel.console_output() == b"line\n" * 5
    assert decodes == ["/bin/cat.wasm"]
    cats = [p for p in rt.processes if p.module.name == "/bin/cat.wasm"]
    assert len(cats) == 5
    first = [getattr(f, "code", None) for f in cats[0].instance.funcs]
    for p in cats[1:]:
        assert all(getattr(f, "code", None) is code
                   for f, code in zip(p.instance.funcs, first))


def test_image_cache_drops_a_rewritten_file():
    rt = WaliRuntime()
    install_all(rt, ["echo"])
    first = rt._image_from_path("/bin/echo.wasm")
    assert rt._image_from_path("/bin/echo.wasm") is first
    rt.install_binary("/bin/echo.wasm", build("true"))
    second = rt._image_from_path("/bin/echo.wasm")
    assert second is not first and len(rt._images) == 1
    assert rt.run("/bin/echo.wasm", argv=["echo", "x"]) == 0
    assert rt.kernel.console_output() == b""


NAN, INF = float("nan"), float("inf")

# wasm's f64 results, where Python's math spelling raises or drops a sign
F64_SPEC = {
    "f64.sqrt": [(-1.0, NAN), (-INF, NAN), (NAN, NAN), (-0.0, -0.0),
                 (4.0, 2.0), (INF, INF)],
    "f64.ceil": [(-0.5, -0.0), (0.5, 1.0), (-1.5, -1.0), (-0.0, -0.0),
                 (INF, INF), (-INF, -INF), (NAN, NAN)],
    "f64.floor": [(0.5, 0.0), (-0.5, -1.0), (-0.0, -0.0), (INF, INF),
                  (-INF, -INF), (NAN, NAN)],
    "f64.trunc": [(-0.5, -0.0), (2.7, 2.0), (-2.7, -2.0), (INF, INF),
                  (-INF, -INF), (NAN, NAN)],
    "f64.nearest": [(-0.4, -0.0), (0.4, 0.0), (2.5, 2.0), (3.5, 4.0),
                    (-2.5, -2.0), (INF, INF), (-INF, -INF), (NAN, NAN)],
}


def _same_f64(got, want) -> bool:
    if want != want:
        return got != got
    return repr(got) == repr(want)  # tells -0.0 from 0.0


# binary ops: ((a, b), result)
F64_SPEC.update({
    "f64.min": [((1.0, NAN), NAN), ((NAN, 1.0), NAN), ((0.0, -0.0), -0.0),
                ((-0.0, 0.0), -0.0), ((2.0, -3.0), -3.0)],
    "f64.max": [((1.0, NAN), NAN), ((NAN, 1.0), NAN), ((0.0, -0.0), 0.0),
                ((-0.0, 0.0), 0.0), ((2.0, -3.0), 2.0)],
})


@pytest.mark.parametrize("op", sorted(F64_SPEC))
def test_f64_ops_give_spec_values(hot_at_once, op):
    """The interpreter, the compiled blocks and the AoT tier all return
    wasm's value: NaN for sqrt of a negative and from min/max of a NaN,
    the operand for ±inf and NaN, and the right signed zero."""
    binary = isinstance(F64_SPEC[op][0][0], tuple)
    mb = ModuleBuilder("f64op")
    f = mb.func("f", params=[F64, F64] if binary else [F64], results=[F64],
                export=True)
    f.local_get(0)
    if binary:
        f.local_get(1)
    f.op(op)
    f.end()
    module = mb.build()
    for x, want in F64_SPEC[op]:
        args = list(x) if binary else [x]
        for engine in (BLOCKS, REFERENCE):
            inst = instantiate(module)
            if engine == REFERENCE:
                inst.machine.fuel = 10**9
            got = inst.machine.invoke(inst.func_by_name("f"), args)
            assert _same_f64(got, want), (engine, op, x, got)
        inst = instantiate(module)
        got = compile_instance(inst).invoke(inst.func_index_of("f"),
                                            tuple(args))
        assert _same_f64(got, want), ("aot", op, x, got)


def test_f64_blocks_agree(hot_at_once):
    """Float constants (infinities, NaN, -0.0) and float ops give the
    same values and steps on both engines."""
    mb = ModuleBuilder("f64")
    mb.add_memory(1, 1)
    f = mb.func("f", params=[F64], results=[F64], export=True)
    f.local_get(0).f64_const(float("-inf")).op("f64.max")
    f.f64_const(-0.0).op("f64.add").f64_const(0.0).op("f64.div")
    f.local_get(0).op("f64.floor").op("f64.add")
    f.local_get(0).op("f64.nearest").op("f64.min")
    f.local_get(0).op("f64.ceil").op("f64.sub")
    f.f64_const(float("nan")).op("f64.mul")
    f.i32_const(8).local_get(0).op("f64.sqrt").op("f64.store", 3, 0)
    f.i32_const(8).op("f64.load", 3, 0).op("f64.add")
    f.end()
    module = mb.build()
    for x in (2.5, -3.5, 0.0, float("inf"), -1.0):
        outcomes = []
        for engine in (BLOCKS, REFERENCE):
            inst = instantiate(module)
            m = inst.machine
            if engine == REFERENCE:
                m.fuel = 10**9
            result = repr(m.invoke(inst.func_by_name("f"), [x]))
            outcomes.append((result, m.steps))
        assert outcomes[0] == outcomes[1], x
