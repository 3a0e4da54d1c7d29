"""The interpreter: an explicit-state machine over flat code.

Machine state (operand stack + frame list + per-frame program counter) is
plain data.  That single design decision buys the three capabilities WALI
demands of an engine (§3 of the paper):

* **fork** — a running guest can be duplicated by deep-copying machine state
  (used by the 1-to-1 process model's ``fork`` passthrough);
* **safepoints** — the ``poll`` pseudo-instruction is a cheap hook check, and
  the signal-delivery hook can *re-enter* the same machine to run a guest
  signal handler (a nested ``run`` bounded by the current frame depth);
* **suspension** — host code always sees a consistent machine (the pc is
  committed to the frame before any host call).

``Machine.run`` is block-threaded: hot straight-line runs of flat code
execute as generated Python functions (:mod:`.blocks`), while calls,
returns, polls and the other ops that need machine state stay in the
loop, so the state above is as explicit as ever at every call, safepoint
and host crossing.  ``Machine.steps`` stays exact.  The one-op-per-
iteration loop remains as the reference; it runs when ``fuel`` is set and
for code that is not :class:`FlatCode`.  See ``docs/engine.md``.

Values are Python ints in unsigned representation (i32 in ``[0, 2**32)``,
i64 in ``[0, 2**64)``) and Python floats for f64.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from .errors import (
    GuestExit, Trap, TrapDivByZero, TrapIndirectCall, TrapIntegerOverflow,
    TrapStackExhausted, TrapUnreachable,
)
from .flatten import FlatCode
from .types import (
    F64, FuncType, I32, I64, MASK32, MASK64, default_value, signed32, signed64,
)

MAX_FRAMES = 2000

# One engine-wide lock serialises guest atomic RMW operations (the threads
# proposal subset used by the guest libc's mutexes).
import threading as _threading

_ATOMIC_LOCK = _threading.Lock()


class HostFunc:
    """An imported function provided by the embedder (e.g. a WALI syscall)."""

    __slots__ = ("functype", "fn", "name")

    def __init__(self, functype: FuncType, fn: Callable, name: str = ""):
        self.functype = functype
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "<host>")

    def __repr__(self):
        return f"<hostfunc {self.name} {self.functype}>"


class WasmFunc:
    """A defined function: flat code plus its signature."""

    __slots__ = ("functype", "code")

    def __init__(self, functype: FuncType, code: FlatCode):
        self.functype = functype
        self.code = code


# --------------------------------------------------------------------------
# numeric helpers
# --------------------------------------------------------------------------

def _idiv_s(a: int, b: int, bits: int) -> int:
    if b == 0:
        raise TrapDivByZero()
    sa = signed32(a) if bits == 32 else signed64(a)
    sb = signed32(b) if bits == 32 else signed64(b)
    if sb == -1 and sa == -(1 << (bits - 1)):
        raise TrapIntegerOverflow("signed division overflow")
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & ((1 << bits) - 1)


def _irem_s(a: int, b: int, bits: int) -> int:
    if b == 0:
        raise TrapDivByZero()
    sa = signed32(a) if bits == 32 else signed64(a)
    sb = signed32(b) if bits == 32 else signed64(b)
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return r & ((1 << bits) - 1)


def _clz(x: int, bits: int) -> int:
    return bits - x.bit_length() if x else bits


def _ctz(x: int, bits: int) -> int:
    return (x & -x).bit_length() - 1 if x else bits


def _rotl(x: int, n: int, bits: int) -> int:
    n %= bits
    mask = (1 << bits) - 1
    return ((x << n) | (x >> (bits - n))) & mask


def _trunc(f: float, lo: int, hi: int, mask: int) -> int:
    if f != f:  # NaN
        raise TrapIntegerOverflow("trunc of NaN")
    t = int(f)
    if t < lo or t > hi:
        raise TrapIntegerOverflow("trunc out of range")
    return t & mask


def _fsqrt(x: float) -> float:
    """f64.sqrt: NaN for a negative operand, where ``math.sqrt`` raises."""
    return math.sqrt(x) if x >= 0.0 else math.nan


def _fmin(a: float, b: float) -> float:
    """f64.min: NaN when either operand is, and -0.0 below 0.0."""
    if a != a or b != b:
        return math.nan
    if a == b:  # equal zeros differ only in sign
        return a if math.copysign(1.0, a) < 0 else b
    return a if a < b else b


def _fmax(a: float, b: float) -> float:
    """f64.max: NaN when either operand is, and 0.0 above -0.0."""
    if a != a or b != b:
        return math.nan
    if a == b:
        return b if math.copysign(1.0, a) < 0 else a
    return a if a > b else b


def _fround(fn: Callable) -> Callable[[float], float]:
    """An f64 rounding op over ``fn``: ±inf and NaN come back unchanged,
    and a zero result keeps the operand's sign (``ceil(-0.5)`` is -0.0)."""
    def op(x: float) -> float:
        if not math.isfinite(x):
            return x
        return math.copysign(fn(x), x)
    return op


_fceil = _fround(math.ceil)
_ffloor = _fround(math.floor)
_ftrunc = _fround(math.trunc)
_fnearest = _fround(round)  # round() is round-half-to-even, like wasm


# Simple value ops: name -> fn(stack) mutating the operand stack in place.
def _build_arith():
    A = {}

    def bin32(name, fn):
        def h(s, fn=fn):
            b = s.pop(); a = s.pop()
            s.append(fn(a, b) & MASK32)
        A[f"i32.{name}"] = h

    def cmp32(name, fn):
        def h(s, fn=fn):
            b = s.pop(); a = s.pop()
            s.append(1 if fn(a, b) else 0)
        A[f"i32.{name}"] = h

    def un32(name, fn):
        def h(s, fn=fn):
            s.append(fn(s.pop()) & MASK32)
        A[f"i32.{name}"] = h

    def bin64(name, fn):
        def h(s, fn=fn):
            b = s.pop(); a = s.pop()
            s.append(fn(a, b) & MASK64)
        A[f"i64.{name}"] = h

    def cmp64(name, fn):
        def h(s, fn=fn):
            b = s.pop(); a = s.pop()
            s.append(1 if fn(a, b) else 0)
        A[f"i64.{name}"] = h

    def un64(name, fn):
        def h(s, fn=fn):
            s.append(fn(s.pop()) & MASK64)
        A[f"i64.{name}"] = h

    for bits, bin_, cmp_, un_, sgn in (
        (32, bin32, cmp32, un32, signed32),
        (64, bin64, cmp64, un64, signed64),
    ):
        bin_("add", lambda a, b: a + b)
        bin_("sub", lambda a, b: a - b)
        bin_("mul", lambda a, b: a * b)
        bin_("div_s", lambda a, b, bits=bits: _idiv_s(a, b, bits))
        bin_("rem_s", lambda a, b, bits=bits: _irem_s(a, b, bits))
        bin_("div_u", lambda a, b: _udiv(a, b))
        bin_("rem_u", lambda a, b: _urem(a, b))
        bin_("and", lambda a, b: a & b)
        bin_("or", lambda a, b: a | b)
        bin_("xor", lambda a, b: a ^ b)
        bin_("shl", lambda a, b, bits=bits: a << (b % bits))
        bin_("shr_u", lambda a, b, bits=bits: a >> (b % bits))
        bin_("shr_s", lambda a, b, bits=bits, sgn=sgn: sgn(a) >> (b % bits))
        bin_("rotl", lambda a, b, bits=bits: _rotl(a, b, bits))
        bin_("rotr", lambda a, b, bits=bits: _rotl(a, bits - (b % bits), bits))
        cmp_("eq", lambda a, b: a == b)
        cmp_("ne", lambda a, b: a != b)
        cmp_("lt_u", lambda a, b: a < b)
        cmp_("gt_u", lambda a, b: a > b)
        cmp_("le_u", lambda a, b: a <= b)
        cmp_("ge_u", lambda a, b: a >= b)
        cmp_("lt_s", lambda a, b, sgn=sgn: sgn(a) < sgn(b))
        cmp_("gt_s", lambda a, b, sgn=sgn: sgn(a) > sgn(b))
        cmp_("le_s", lambda a, b, sgn=sgn: sgn(a) <= sgn(b))
        cmp_("ge_s", lambda a, b, sgn=sgn: sgn(a) >= sgn(b))
        un_("clz", lambda x, bits=bits: _clz(x, bits))
        un_("ctz", lambda x, bits=bits: _ctz(x, bits))
        un_("popcnt", lambda x: bin(x).count("1"))

    def h_eqz32(s):
        s.append(1 if s.pop() == 0 else 0)
    A["i32.eqz"] = h_eqz32
    A["i64.eqz"] = h_eqz32

    # f64
    def binf(name, fn):
        def h(s, fn=fn):
            b = s.pop(); a = s.pop()
            s.append(fn(a, b))
        A[f"f64.{name}"] = h

    def cmpf(name, fn):
        def h(s, fn=fn):
            b = s.pop(); a = s.pop()
            s.append(1 if fn(a, b) else 0)
        A[f"f64.{name}"] = h

    def unf(name, fn):
        def h(s, fn=fn):
            s.append(fn(s.pop()))
        A[f"f64.{name}"] = h

    binf("add", lambda a, b: a + b)
    binf("sub", lambda a, b: a - b)
    binf("mul", lambda a, b: a * b)
    binf("div", lambda a, b: _fdiv(a, b))
    binf("min", _fmin)
    binf("max", _fmax)
    cmpf("eq", lambda a, b: a == b)
    cmpf("ne", lambda a, b: a != b)
    cmpf("lt", lambda a, b: a < b)
    cmpf("gt", lambda a, b: a > b)
    cmpf("le", lambda a, b: a <= b)
    cmpf("ge", lambda a, b: a >= b)
    unf("abs", abs)
    unf("neg", lambda x: -x)
    unf("sqrt", _fsqrt)
    unf("ceil", _fceil)
    unf("floor", _ffloor)
    unf("trunc", _ftrunc)
    unf("nearest", _fnearest)

    # conversions
    def conv(name, fn):
        def h(s, fn=fn):
            s.append(fn(s.pop()))
        A[name] = h

    conv("i32.wrap_i64", lambda x: x & MASK32)
    conv("i64.extend_i32_s", lambda x: signed32(x) & MASK64)
    conv("i64.extend_i32_u", lambda x: x)
    conv("i32.trunc_f64_s", lambda f: _trunc(f, -(1 << 31), (1 << 31) - 1, MASK32))
    conv("i32.trunc_f64_u", lambda f: _trunc(f, 0, (1 << 32) - 1, MASK32))
    conv("i64.trunc_f64_s", lambda f: _trunc(f, -(1 << 63), (1 << 63) - 1, MASK64))
    conv("i64.trunc_f64_u", lambda f: _trunc(f, 0, (1 << 64) - 1, MASK64))
    conv("f64.convert_i32_s", lambda x: float(signed32(x)))
    conv("f64.convert_i32_u", lambda x: float(x))
    conv("f64.convert_i64_s", lambda x: float(signed64(x)))
    conv("f64.convert_i64_u", lambda x: float(x))
    conv("i32.extend8_s", lambda x: _sext(x, 8, MASK32))
    conv("i32.extend16_s", lambda x: _sext(x, 16, MASK32))
    conv("i64.extend32_s", lambda x: _sext(x, 32, MASK64))
    return A


def _udiv(a: int, b: int) -> int:
    if b == 0:
        raise TrapDivByZero()
    return a // b


def _urem(a: int, b: int) -> int:
    if b == 0:
        raise TrapDivByZero()
    return a % b


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or a != a:
            return float("nan")
        return float("inf") if (a > 0) == (str(b)[0] != "-") else float("-inf")
    return a / b


def _sext(x: int, from_bits: int, mask: int) -> int:
    x &= (1 << from_bits) - 1
    if x & (1 << (from_bits - 1)):
        x -= 1 << from_bits
    return x & mask


ARITH = _build_arith()

# memory access descriptors: name -> (nbytes, signed, result mask or None=f64)
_LOADS = {
    "i32.load": (4, False, MASK32), "i64.load": (8, False, MASK64),
    "i32.load8_s": (1, True, MASK32), "i32.load8_u": (1, False, MASK32),
    "i32.load16_s": (2, True, MASK32), "i32.load16_u": (2, False, MASK32),
    "i64.load8_s": (1, True, MASK64), "i64.load8_u": (1, False, MASK64),
    "i64.load16_s": (2, True, MASK64), "i64.load16_u": (2, False, MASK64),
    "i64.load32_s": (4, True, MASK64), "i64.load32_u": (4, False, MASK64),
}
_STORES = {
    "i32.store": 4, "i64.store": 8, "i32.store8": 1, "i32.store16": 2,
    "i64.store8": 1, "i64.store16": 2, "i64.store32": 4,
}


def _atomic_add(stack, mem, offset: int) -> None:
    val = stack.pop()
    addr = stack.pop() + offset
    with _ATOMIC_LOCK:
        old = mem.load_i32(addr)
        mem.store_i32(addr, old + val)
    stack.append(old)


def _atomic_cmpxchg(stack, mem, offset: int) -> None:
    new = stack.pop()
    expected = stack.pop()
    addr = stack.pop() + offset
    with _ATOMIC_LOCK:
        old = mem.load_i32(addr)
        if old == expected:
            mem.store_i32(addr, new)
    stack.append(old)


_ATOMICS = {"i32.atomic.rmw.add": _atomic_add,
            "i32.atomic.rmw.cmpxchg": _atomic_cmpxchg}


def _unwind(stack: list, keep_from: int, arity: int) -> None:
    """Branch unwinding: cut the stack to ``keep_from`` values, keeping the
    top ``arity`` values on top."""
    if arity:
        keep = stack[len(stack) - arity:]
        del stack[keep_from:]
        stack.extend(keep)
    else:
        del stack[keep_from:]


# a block start is compiled on this entry and runs op by op on the ones
# before, so run-once start-up code never pays for compilation
HOT_BLOCK_ENTRIES = 16


def _compile_block(code: FlatCode, pc: int, height: int):
    from .blocks import compile_block

    return compile_block(code, pc, height)


def _trap_steps(block: tuple, exc: BaseException) -> int:
    """Ops a compiled block retired up to and including the one that
    raised ``exc``: the line it was raised on, mapped back to its op."""
    fn_code = block[0].__code__
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code is fn_code:
            return block[2][tb.tb_lineno]
        tb = tb.tb_next
    return block[1]


class Machine:
    """One thread of Wasm execution (the paper's instance-per-thread unit)."""

    def __init__(self, instance):
        self.instance = instance
        self.stack: List = []
        # frame: [code, pc, locals, stack_base]
        self.frames: List[list] = []
        self.poll_hook: Optional[Callable[[], None]] = None
        self.steps = 0
        self.fuel: Optional[int] = None
        self.max_frames = MAX_FRAMES

    # ---- public API ----

    def invoke(self, func, args=()):
        """Call a function (by ``WasmFunc``/``HostFunc`` or index) to
        completion; returns the single result or ``None``."""
        if isinstance(func, int):
            func = self.instance.funcs[func]
        if isinstance(func, HostFunc):
            res = func.fn(*args)
            return res
        depth = len(self.frames)
        self._push_frame(func.code, list(args))
        self.run(depth)
        if func.code.n_results:
            return self.stack.pop()
        return None

    def reenter(self, func, args=()):
        """Host→guest reentrancy (e.g. running a signal handler): identical
        to :meth:`invoke`, named separately for traceability."""
        return self.invoke(func, args)

    def clone(self, new_instance) -> "Machine":
        """Duplicate the machine (fork support).  ``new_instance`` must be a
        clone of this machine's instance (memory copied, code shared)."""
        m = Machine(new_instance)
        m.stack = list(self.stack)
        m.frames = [[f[0], f[1], list(f[2]), f[3]] for f in self.frames]
        m.poll_hook = None  # rebound by the new process
        m.steps = self.steps
        m.fuel = self.fuel
        m.max_frames = self.max_frames
        return m

    # ---- internals ----

    def _push_frame(self, code: FlatCode, args: List) -> None:
        if len(self.frames) >= self.max_frames:
            raise TrapStackExhausted(f"{len(self.frames)} frames")
        locals_ = args
        for t in code.local_types[len(args):]:
            locals_.append(default_value(t))
        self.frames.append([code, 0, locals_, len(self.stack)])

    def run(self, min_depth: int = 0) -> None:
        """Execute until the frame stack drops back to ``min_depth``.

        Runs the block engine, or the per-op reference loop when ``fuel``
        is set (fuel is checked per op)."""
        if self.fuel is None:
            self._run_blocks(min_depth)
        else:
            self._run_ops(min_depth)

    def _run_blocks(self, min_depth: int) -> None:
        """The block engine: hot blocks run as compiled functions
        (:mod:`.blocks`), cold ones op by op; ops that need machine state
        run here.  ``steps`` is kept in a local and written back before
        every host call, poll hook and nested run, and on exit."""
        stack = self.stack
        frames = self.frames
        inst = self.instance
        globals_ = inst.globals
        mem = inst.memory
        data = mem.data if mem is not None else None
        steps = self.steps
        try:
            while len(frames) > min_depth:
                frame = frames[-1]
                code = frame[0]
                if code.__class__ is not FlatCode:
                    # decode-on-fetch views run in the reference loop
                    self.steps = steps
                    try:
                        self._run_ops(len(frames) - 1)
                    finally:
                        steps = self.steps
                    mem = inst.memory
                    data = mem.data if mem is not None else None
                    continue
                ops = code.ops
                blocks = code.blocks
                if blocks is None:
                    blocks = code.blocks = [HOT_BLOCK_ENTRIES] * len(ops)
                pc = frame[1]
                locals_ = frame[2]

                while True:
                    # pc starts a block: run it compiled once it is hot,
                    # op by op before; None marks an op run only here
                    b = blocks[pc]
                    if b.__class__ is tuple:
                        steps += b[1]
                        try:
                            pc = b[0](stack, locals_, mem, data, globals_)
                        except BaseException as exc:
                            steps += _trap_steps(b, exc) - b[1]
                            raise
                        continue
                    if b is not None:
                        if b <= 1:
                            blocks[pc] = _compile_block(
                                code, pc, len(stack) - frame[3])
                            continue
                        blocks[pc] = b - 1
                        self.steps = steps
                        try:
                            pc = self._run_cold(ops, pc, locals_)
                        finally:
                            steps = self.steps

                    # the op that ends the block
                    op_imm = ops[pc]
                    op = op_imm[0]
                    pc += 1
                    steps += 1
                    if op == "call" or op == "call_indirect":
                        if op == "call":
                            callee = inst.funcs[op_imm[1]]
                        else:
                            callee = self._resolve_indirect(stack.pop(),
                                                            op_imm[1])
                        frame[1] = pc
                        if callee.__class__ is HostFunc:
                            self.steps = steps
                            try:
                                self._call_host(callee)
                            finally:
                                steps = self.steps
                            mem = inst.memory  # a host call may grow it
                            data = mem.data if mem is not None else None
                            continue
                        ccode = callee.code
                        if len(frames) >= self.max_frames:
                            raise TrapStackExhausted(f"{len(frames)} frames")
                        n = ccode.n_params
                        if n:
                            args = stack[len(stack) - n:]
                            del stack[len(stack) - n:]
                            args += ccode.local_zeros
                        else:
                            args = ccode.local_zeros[:]
                        frames.append([ccode, 0, args, len(stack)])
                        break  # continue in the callee's frame
                    if op == "ret":
                        base = frame[3]
                        if code.n_results:
                            result = stack[-1]
                            del stack[base:]
                            stack.append(result)
                        else:
                            del stack[base:]
                        frames.pop()
                        break
                    if op == "br_if":
                        if stack.pop():
                            _, pc, arity, height, *_ = op_imm
                            _unwind(stack, frame[3] + height, arity)
                        continue
                    if op == "jump":
                        _, pc, arity, height, *_ = op_imm
                        _unwind(stack, frame[3] + height, arity)
                        continue
                    if op == "if_false":
                        if not stack.pop():
                            pc = op_imm[1]
                        continue
                    if op == "poll":
                        hook = self.poll_hook
                        if hook is not None:
                            frame[1] = pc
                            self.steps = steps
                            try:
                                hook()
                            finally:
                                steps = self.steps
                            mem = inst.memory
                            data = mem.data if mem is not None else None
                        continue
                    if op == "br_table":
                        entries = op_imm[1]
                        idx = min(stack.pop(), len(entries) - 1)
                        pc, arity, height = entries[idx]
                        _unwind(stack, frame[3] + height, arity)
                        continue
                    if op == "memory.grow":
                        stack.append(mem.grow(stack.pop()) & MASK32)
                        continue
                    if op in _ATOMICS:
                        _ATOMICS[op](stack, mem, op_imm[1])
                        continue
                    if op == "unreachable":
                        frame[1] = pc - 1
                        raise TrapUnreachable(code.name)
                    raise Trap("bad-instruction", f"{op!r} in {code.name}")
            self.steps = steps
        except BaseException:
            self.steps = steps
            raise

    def _run_cold(self, ops: list, pc: int, locals_: list) -> int:
        """Run a block that is not hot yet op by op, from ``pc`` up to the
        op that ends it; returns that op's pc.  Counts each op into
        ``self.steps`` before it runs, as the reference loop does, so a
        trap leaves the count exact."""
        stack = self.stack
        mem = self.instance.memory
        globals_ = self.instance.globals
        while True:
            op_imm = ops[pc]
            op = op_imm[0]
            pc += 1
            self.steps += 1
            if op == "local.get":
                stack.append(locals_[op_imm[1]])
                continue
            if op == "const":
                stack.append(op_imm[1])
                continue
            h = ARITH.get(op)
            if h is not None:
                h(stack)
                continue
            if op == "local.set":
                locals_[op_imm[1]] = stack.pop()
                continue
            if op == "local.tee":
                locals_[op_imm[1]] = stack[-1]
                continue
            if op in _LOADS:
                nbytes, signed, mask = _LOADS[op]
                addr = stack.pop() + op_imm[1]
                if signed:
                    stack.append(mem.load_s(addr, nbytes) & mask)
                else:
                    stack.append(mem.load_u(addr, nbytes))
                continue
            if op in _STORES:
                val = stack.pop()
                addr = stack.pop() + op_imm[1]
                mem.store_int(addr, val, _STORES[op])
                continue
            if op == "global.get":
                stack.append(globals_[op_imm[1]].value)
                continue
            if op == "global.set":
                globals_[op_imm[1]].value = stack.pop()
                continue
            if op == "drop":
                stack.pop()
                continue
            if op == "select":
                c = stack.pop()
                other = stack.pop()
                if not c:
                    stack[-1] = other
                continue
            if op == "f64.load":
                stack.append(mem.load_f64(stack.pop() + op_imm[1]))
                continue
            if op == "f64.store":
                val = stack.pop()
                mem.store_f64(stack.pop() + op_imm[1], val)
                continue
            if op == "memory.size":
                stack.append(mem.pages)
                continue
            if op == "memory.copy":
                n = stack.pop(); src = stack.pop(); dst = stack.pop()
                mem.copy(dst, src, n)
                continue
            if op == "memory.fill":
                n = stack.pop(); val = stack.pop(); dst = stack.pop()
                mem.fill(dst, val, n)
                continue
            # not a block op: the caller runs it
            self.steps -= 1
            return pc - 1

    def _run_ops(self, min_depth: int) -> None:
        """The reference loop: one op per iteration, ``steps`` and ``fuel``
        checked on every op."""
        stack = self.stack
        frames = self.frames
        inst = self.instance
        arith = ARITH
        loads = _LOADS
        stores = _STORES

        while len(frames) > min_depth:
            frame = frames[-1]
            code = frame[0]
            ops = code.ops
            pc = frame[1]
            locals_ = frame[2]
            mem = inst.memory

            while True:
                op_imm = ops[pc]
                op = op_imm[0]
                pc += 1
                self.steps += 1
                if self.fuel is not None and self.steps > self.fuel:
                    frame[1] = pc - 1
                    raise Trap("fuel-exhausted", f"{self.steps} steps")

                h = arith.get(op)
                if h is not None:
                    h(stack)
                    continue
                if op == "const":
                    stack.append(op_imm[1])
                    continue
                if op == "local.get":
                    stack.append(locals_[op_imm[1]])
                    continue
                if op == "local.set":
                    locals_[op_imm[1]] = stack.pop()
                    continue
                if op == "local.tee":
                    locals_[op_imm[1]] = stack[-1]
                    continue
                if op in loads:
                    nbytes, signed, mask = loads[op]
                    addr = stack.pop() + op_imm[1]
                    if signed:
                        stack.append(mem.load_s(addr, nbytes) & mask)
                    else:
                        stack.append(mem.load_u(addr, nbytes))
                    continue
                if op in stores:
                    val = stack.pop()
                    addr = stack.pop() + op_imm[1]
                    mem.store_int(addr, val, stores[op])
                    continue
                if op == "f64.load":
                    stack.append(mem.load_f64(stack.pop() + op_imm[1]))
                    continue
                if op == "f64.store":
                    val = stack.pop()
                    mem.store_f64(stack.pop() + op_imm[1], val)
                    continue
                if op == "jump":
                    _, pc, arity, height, *_ = op_imm
                    _unwind(stack, frame[3] + height, arity)
                    continue
                if op == "br_if":
                    if stack.pop():
                        _, pc, arity, height, *_ = op_imm
                        _unwind(stack, frame[3] + height, arity)
                    continue
                if op == "if_false":
                    if not stack.pop():
                        pc = op_imm[1]
                    continue
                if op == "br_table":
                    entries = op_imm[1]
                    idx = stack.pop()
                    if idx >= len(entries) - 1:
                        idx = len(entries) - 1
                    pc, arity, height = entries[idx]
                    _unwind(stack, frame[3] + height, arity)
                    continue
                if op == "call":
                    callee = inst.funcs[op_imm[1]]
                    frame[1] = pc
                    if isinstance(callee, HostFunc):
                        self._call_host(callee)
                        mem = inst.memory  # host call may have grown memory
                        continue
                    n = callee.code.n_params
                    args = stack[len(stack) - n:] if n else []
                    if n:
                        del stack[len(stack) - n:]
                    self._push_frame(callee.code, args)
                    break  # re-enter outer loop with the new frame
                if op == "call_indirect":
                    elem_idx = stack.pop()
                    callee = self._resolve_indirect(elem_idx, op_imm[1])
                    frame[1] = pc
                    if isinstance(callee, HostFunc):
                        self._call_host(callee)
                        mem = inst.memory
                        continue
                    n = callee.code.n_params
                    args = stack[len(stack) - n:] if n else []
                    if n:
                        del stack[len(stack) - n:]
                    self._push_frame(callee.code, args)
                    break
                if op == "ret":
                    nres = code.n_results
                    base = frame[3]
                    if nres:
                        result = stack[-1]
                        del stack[base:]
                        stack.append(result)
                    else:
                        del stack[base:]
                    frames.pop()
                    break
                if op == "poll":
                    hook = self.poll_hook
                    if hook is not None:
                        frame[1] = pc
                        hook()
                        mem = inst.memory
                    continue
                if op == "drop":
                    stack.pop()
                    continue
                if op == "select":
                    c = stack.pop()
                    b = stack.pop()
                    a = stack.pop()
                    stack.append(a if c else b)
                    continue
                if op in _ATOMICS:
                    _ATOMICS[op](stack, mem, op_imm[1])
                    continue
                if op == "memory.size":
                    stack.append(mem.pages)
                    continue
                if op == "memory.grow":
                    stack.append(mem.grow(stack.pop()) & MASK32)
                    continue
                if op == "memory.copy":
                    n = stack.pop(); src = stack.pop(); dst = stack.pop()
                    mem.copy(dst, src, n)
                    continue
                if op == "memory.fill":
                    n = stack.pop(); val = stack.pop(); dst = stack.pop()
                    mem.fill(dst, val, n)
                    continue
                if op == "global.get":
                    stack.append(inst.globals[op_imm[1]].value)
                    continue
                if op == "global.set":
                    inst.globals[op_imm[1]].value = stack.pop()
                    continue
                if op == "unreachable":
                    frame[1] = pc - 1
                    raise TrapUnreachable(code.name)
                raise Trap("bad-instruction", f"{op!r} in {code.name}")

    def _call_host(self, callee: HostFunc) -> None:
        stack = self.stack
        ft = callee.functype
        n = len(ft.params)
        if n:
            args = stack[len(stack) - n:]
            del stack[len(stack) - n:]
        else:
            args = []
        res = callee.fn(*args)
        if ft.results:
            t = ft.results[0]
            if t == I32:
                stack.append((res or 0) & MASK32)
            elif t == I64:
                stack.append((res or 0) & MASK64)
            else:
                stack.append(float(res or 0.0))
        elif res is not None:
            raise Trap("host-result-mismatch", callee.name)

    def _resolve_indirect(self, elem_idx: int, type_idx: int):
        inst = self.instance
        table = inst.table
        if table is None or elem_idx >= len(table.elems):
            raise TrapIndirectCall(f"table index {elem_idx} out of range")
        callee = table.elems[elem_idx]
        if callee is None:
            raise TrapIndirectCall(f"null table entry {elem_idx}")
        expected = inst.module.types[type_idx]
        if callee.functype != expected:
            raise TrapIndirectCall(
                f"expected {expected}, found {callee.functype}")
        return callee
