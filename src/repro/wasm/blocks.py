"""Block compiler: hot straight-line flat code → generated Python.

The interpreter (:mod:`.interp`) cuts a :class:`~.flatten.FlatCode` into
basic blocks at the pcs it lands on after a control transfer (function
entry, branch targets, fall-throughs, returns from calls and polls).  Once a
block start has been entered :data:`~.interp.HOT_BLOCK_ENTRIES` times,
:func:`compile_block` turns the straight run of ops that begins there into::

    def _b(stack, L, mem, data, G) -> next_pc

where ``stack`` is the machine's operand stack, ``L`` the frame's locals,
``mem``/``data`` the linear memory and its byte array and ``G`` the
instance's globals.

Inside the function operand values live in a compile-time *symbolic stack*
of Python expressions; they reach the real stack only when they leave the
block (fall-through, or the values a branch keeps).  Values that can trap
or read state that may change (loads, globals, divisions, traps in float
conversions) are computed at their op, so effects keep their order.  Pure
expressions are folded into their consumer, and a comparison feeding a
branch becomes the branch's ``if`` test.

A block ends *after* a ``jump``, ``br_if`` or ``if_false`` and *before* any
op that needs machine state (calls, ``ret``, ``poll``, ``br_table``,
``memory.grow``, atomics, ``unreachable``), which the interpreter's loop
runs itself.  Either way a block retires a fixed number of ops, so the loop
books its steps at once.  A trap raised in the middle of a block is mapped
back to the op that raised it through the line of the generated source it
was raised on (``line_steps``), which keeps ``Machine.steps`` exact.

Op semantics are :mod:`.compile`'s op→expression templates; only memory
access is spelled out here, as inline bounds checks over ``struct`` reads
and writes whose slow side is ``mem.check``.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from .compile import (
    _BINOPS32, _BINOPS64, _BINOPSF, _UNOPS, TEMPLATE_ENV, const_literal,
)
from .flatten import FlatCode

# a longer straight run is cut into several blocks
MAX_BLOCK_OPS = 400
# pure expressions nest at most this deep before they are computed
_MAX_DEPTH = 12

_BINOPS = {**_BINOPS32, **_BINOPS64, **_BINOPSF}

# helpers whose templates may raise: their results are computed at the op
_RAISING = ("_idiv_s", "_irem_s", "_udiv", "_urem", "_trunc")

# load op -> (size, reader template over ``data`` and address ``{a}``)
_LOADS = {
    "i32.load": (4, "_rd_u32(data, {a})[0]"),
    "i64.load": (8, "_rd_u64(data, {a})[0]"),
    "f64.load": (8, "_rd_f64(data, {a})[0]"),
    "i32.load8_u": (1, "data[{a}]"),
    "i32.load8_s": (1, "_rd_s8(data, {a})[0] & 0xFFFFFFFF"),
    "i32.load16_u": (2, "_rd_u16(data, {a})[0]"),
    "i32.load16_s": (2, "_rd_s16(data, {a})[0] & 0xFFFFFFFF"),
    "i64.load8_u": (1, "data[{a}]"),
    "i64.load8_s": (1, "_rd_s8(data, {a})[0] & 0xFFFFFFFFFFFFFFFF"),
    "i64.load16_u": (2, "_rd_u16(data, {a})[0]"),
    "i64.load16_s": (2, "_rd_s16(data, {a})[0] & 0xFFFFFFFFFFFFFFFF"),
    "i64.load32_u": (4, "_rd_u32(data, {a})[0]"),
    "i64.load32_s": (4, "_rd_s32(data, {a})[0] & 0xFFFFFFFFFFFFFFFF"),
}
# store op -> (size, writer template over address ``{a}`` and value ``{v}``)
_STORES = {
    "i32.store": (4, "_wr_u32(data, {a}, {v} & 0xFFFFFFFF)"),
    "i64.store": (8, "_wr_u64(data, {a}, {v} & 0xFFFFFFFFFFFFFFFF)"),
    "f64.store": (8, "_wr_f64(data, {a}, {v})"),
    "i32.store8": (1, "data[{a}] = {v} & 0xFF"),
    "i32.store16": (2, "_wr_u16(data, {a}, {v} & 0xFFFF)"),
    "i64.store8": (1, "data[{a}] = {v} & 0xFF"),
    "i64.store16": (2, "_wr_u16(data, {a}, {v} & 0xFFFF)"),
    "i64.store32": (4, "_wr_u32(data, {a}, {v} & 0xFFFFFFFF)"),
}

_ENV = dict(TEMPLATE_ENV)
for _name, _fmt in (("u16", "<H"), ("u32", "<I"), ("u64", "<Q"),
                    ("s8", "<b"), ("s16", "<h"), ("s32", "<i"),
                    ("f64", "<d")):
    _ENV[f"_rd_{_name}"] = struct.Struct(_fmt).unpack_from
    _ENV[f"_wr_{_name}"] = struct.Struct(_fmt).pack_into


class _Val:
    """One symbolic stack entry: a Python expression for an operand.

    ``deps`` are the locals the expression reads through ``L[k]``; ``cond``
    is the test form of a ``1 if X else 0`` value; ``depth`` bounds
    nesting."""

    __slots__ = ("expr", "deps", "cond", "depth")

    def __init__(self, expr: str, deps=frozenset(), cond=None, depth=0):
        self.expr = expr
        self.deps = deps
        self.cond = cond
        self.depth = depth

    @property
    def atom(self) -> bool:
        return self.depth == 0 and not self.deps

    @property
    def test(self) -> str:
        return self.cond if self.cond is not None else self.expr


class _BlockCompiler:
    def __init__(self, code: FlatCode, pc: int, height: int):
        self.code = code
        self.start = pc
        self.height = height   # real stack height (above the frame base)
        self.sym: List[_Val] = []
        self.known = {}        # local index -> atom holding its value
        self.lines: List[str] = []
        self.line_ops: List[int] = []
        self.indent = 1
        self.n_ops = 0         # ops taken into the block so far
        self.ntmp = 0
        self.limits = set()    # access sizes needing a bounds limit

    # ---- emission ----

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)
        self.line_ops.append(self.n_ops)

    def tmp(self) -> str:
        self.ntmp += 1
        return f"t{self.ntmp}"

    def assign(self, expr: str) -> _Val:
        t = self.tmp()
        self.emit(f"{t} = {expr}")
        return _Val(t)

    # ---- the symbolic stack ----

    def push(self, v: _Val) -> None:
        if v.depth > _MAX_DEPTH:
            v = self.assign(v.expr)
        self.sym.append(v)

    def pop(self) -> _Val:
        if self.sym:
            return self.sym.pop()
        self.height -= 1
        return self.assign("stack.pop()")

    def atom(self, v: _Val) -> _Val:
        return v if v.atom else self.assign(v.expr)

    def pure(self, text: str, *args: _Val) -> _Val:
        deps = frozenset().union(*(a.deps for a in args))
        depth = 1 + max((a.depth for a in args), default=0)
        cond = None
        if text.startswith("1 if ") and text.endswith(" else 0"):
            cond = f"({text[5:-7]})"
        return _Val(f"({text})", deps, cond, depth)

    def flush(self) -> None:
        """Move every symbolic value to the real stack."""
        sym = self.sym
        if len(sym) == 1:
            self.emit(f"stack.append({sym[0].expr})")
        elif sym:
            self.emit(f"stack += ({', '.join(v.expr for v in sym)})")
        self.height += len(sym)
        self.sym = []

    def _before_local_write(self, k: int) -> None:
        for i, v in enumerate(self.sym):
            if k in v.deps:
                self.sym[i] = self.assign(v.expr)

    # ---- branches ----

    def unwind(self, target: int, arity: int, height: int) -> None:
        """Leave through a branch that keeps ``arity`` values on top of the
        first ``height`` stack slots (frame-relative)."""
        keep = [self.pop() for _ in range(arity)][::-1]
        if height <= self.height:
            if height < self.height:
                self.emit(f"del stack[{height - self.height}:]")
            self.height = height
            self.sym = []
        else:
            self.sym = self.sym[:height - self.height]
        self.sym.extend(keep)
        self.flush()
        self.emit(f"return {target}")

    def branch(self, cond: Optional[_Val], target: int, arity: int,
               height: int, fall: int) -> None:
        if cond is None:
            self.unwind(target, arity, height)
            return
        if height + arity == self.height + len(self.sym):
            # nothing to unwind: both ways leave the same stack
            self.flush()
            self.emit(f"if {cond.test}:")
            self.emit(f"    return {target}")
        else:
            saved = (list(self.sym), self.height)
            self.emit(f"if {cond.test}:")
            self.indent += 1
            self.unwind(target, arity, height)
            self.indent -= 1
            self.sym, self.height = saved
            self.flush()
        self.emit(f"return {fall}")

    # ---- ops ----

    def op(self, instr: tuple) -> bool:
        """Take one op into the block; False if the op ends the block
        without being part of it."""
        name = instr[0]
        if name == "local.get":
            k = instr[1]
            atom = self.known.get(k)
            self.push(_Val(atom) if atom is not None
                      else _Val(f"L[{k}]", frozenset((k,))))
        elif name == "const":
            self.push(_Val(const_literal(instr[1])))
        elif name in _BINOPS:
            b = self.pop()
            a = self.pop()
            self.arith(_BINOPS[name], a, b)
        elif name in _UNOPS:
            a = self.pop()
            if name.endswith(".eqz") and a.cond is not None:
                self.push(_Val(f"(0 if {a.cond} else 1)", a.deps,
                               f"(not {a.cond})", a.depth + 1))
            else:
                self.arith(_UNOPS[name], a)
        elif name == "local.set" or name == "local.tee":
            k = instr[1]
            v = self.pop()
            self._before_local_write(k)
            v = self.atom(v)
            self.emit(f"L[{k}] = {v.expr}")
            self.known[k] = v.expr
            if name == "local.tee":
                self.sym.append(v)
        elif name in _LOADS:
            size, tmpl = _LOADS[name]
            a = self.address(self.pop(), instr[1], size)
            self.sym.append(self.assign(tmpl.format(a=a)))
        elif name in _STORES:
            size, tmpl = _STORES[name]
            v = self.pop()
            a = self.address(self.pop(), instr[1], size)
            self.emit(tmpl.format(a=a, v=v.expr))
        elif name == "global.get":
            self.sym.append(self.assign(f"G[{instr[1]}].value"))
        elif name == "global.set":
            self.emit(f"G[{instr[1]}].value = {self.pop().expr}")
        elif name == "drop":
            self.pop()
        elif name == "select":
            c = self.pop()
            b = self.pop()
            a = self.pop()
            self.push(self.pure(f"{a.expr} if {c.test} else {b.expr}",
                                a, b, c))
        elif name == "memory.size":
            self.sym.append(self.assign("mem.pages"))
        elif name == "memory.copy" or name == "memory.fill":
            n = self.pop()
            src = self.pop()
            dst = self.pop()
            self.emit(f"mem.{name[7:]}({dst.expr}, {src.expr}, {n.expr})")
        else:
            return False
        return True

    def arith(self, template: str, *args: _Val) -> None:
        text = template.format(**dict(zip("ab", (v.expr for v in args))))
        if any(h in template for h in _RAISING):
            self.sym.append(self.assign(text))
        else:
            self.push(self.pure(text, *args))

    def address(self, base: _Val, offset: int, size: int) -> str:
        """Effective address of an access, bounds-checked inline."""
        a = self.assign(f"{base.expr} + {offset}" if offset else base.expr) \
            if offset or not base.atom else base
        self.limits.add(size)
        self.emit(f"if {a.expr} > n{size}: mem.check({a.expr}, {size})")
        return a.expr

    # ---- compiling a block ----

    def run(self) -> Optional[Tuple]:
        ops = self.code.ops
        pc = self.start
        end = len(ops)
        while pc < end and self.n_ops < MAX_BLOCK_OPS:
            instr = ops[pc]
            name = instr[0]
            self.n_ops += 1
            if name == "jump":
                self.branch(None, instr[1] % end, instr[2], instr[3], pc + 1)
                break
            if name == "br_if":
                c = self.pop()
                self.branch(c, instr[1] % end, instr[2], instr[3], pc + 1)
                break
            if name == "if_false":
                c = self.pop()
                self.flush()
                self.emit(f"if {c.test}:")
                self.emit(f"    return {pc + 1}")
                self.emit(f"return {instr[1] % end}")
                break
            if not self.op(instr):
                self.n_ops -= 1
                if self.n_ops == 0:
                    return None
                self.flush()
                self.emit(f"return {pc}")
                break
            pc += 1
        else:
            self.flush()
            self.emit(f"return {pc}")
        header = ["def _b(stack, L, mem, data, G):"]
        prelude = ["    n%d = len(data) - %d" % (s, s)
                   for s in sorted(self.limits)]
        src = "\n".join(header + prelude + self.lines)
        # line number (1-based) -> ops retired when that line raises
        line_steps = [self.n_ops] * (1 + len(header) + len(prelude)) + \
            self.line_ops
        scope: dict = {}
        exec(compile(src, f"<block:{self.code.name}:{self.start}>", "exec"),
             _ENV, scope)
        return scope["_b"], self.n_ops, tuple(line_steps)


def compile_block(code: FlatCode, pc: int, height: int) -> Optional[Tuple]:
    """Compile the block of ``code`` that starts at ``pc``, entered with
    ``height`` operand values above the frame base.

    Returns ``(fn, steps, line_steps)`` or ``None`` when the op at ``pc``
    must run in the interpreter's loop."""
    return _BlockCompiler(code, pc, height).run()
