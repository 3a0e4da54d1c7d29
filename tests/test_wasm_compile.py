"""Compiled-tier tests: semantic equivalence with the interpreter,
including property-based differential testing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.wasm import (
    I32, I64, F64, ModuleBuilder, Trap, TrapDivByZero, TrapIndirectCall,
    TrapUnreachable, instantiate,
)
from repro.wasm.compile import compile_instance


def both_tiers(module, func="f", imports=None):
    """Return (interp_result_fn, compiled_result_fn)."""
    inst_i = instantiate(module, imports)
    inst_c = instantiate(module, imports)
    ctx = compile_instance(inst_c)

    def interp(*args):
        return inst_i.invoke(func, *args)

    def compiled(*args):
        idx = inst_c.func_index_of(func)
        return ctx.invoke(idx, args)

    return interp, compiled


def test_fib_equivalence():
    mb = ModuleBuilder("t")
    f = mb.func("f", params=[I32], results=[I32], export=True)
    f.local_get(0).i32_const(2).op("i32.lt_s")
    with f.if_(I32):
        f.local_get(0)
        f.else_()
        f.local_get(0).i32_const(1).op("i32.sub").call("f")
        f.local_get(0).i32_const(2).op("i32.sub").call("f")
        f.op("i32.add")
    f.end()
    interp, compiled = both_tiers(mb.build())
    assert interp(15) == compiled(15) == 610


def test_loop_with_breaks():
    mb = ModuleBuilder("t")
    f = mb.func("f", params=[I32], results=[I32], export=True)
    acc = f.add_local(I32)
    with f.block():
        with f.loop():
            f.local_get(0).op("i32.eqz")
            f.br_if(1)
            f.local_get(acc).local_get(0).op("i32.add").local_set(acc)
            f.local_get(0).i32_const(1).op("i32.sub").local_set(0)
            # early exit when acc > 100
            f.local_get(acc).i32_const(100).op("i32.gt_s")
            f.br_if(1)
            f.br(0)
    f.local_get(acc)
    f.end()
    interp, compiled = both_tiers(mb.build())
    for n in (0, 5, 50):
        assert interp(n) == compiled(n)


def test_br_table_equivalence():
    mb = ModuleBuilder("t")
    f = mb.func("f", params=[I32], results=[I32], export=True)
    with f.block():
        with f.block():
            with f.block():
                f.local_get(0)
                f.op("br_table", (0, 1), 2)
            f.i32_const(10)
            f.ret()
        f.i32_const(20)
        f.ret()
    f.i32_const(30)
    f.end()
    interp, compiled = both_tiers(mb.build())
    for n in range(5):
        assert interp(n) == compiled(n)


def test_memory_ops():
    mb = ModuleBuilder("t")
    mb.add_memory(1)
    f = mb.func("f", params=[I32, I32], results=[I32], export=True)
    f.local_get(0).local_get(1).i32_store()
    f.local_get(0).i32_load()
    f.end()
    interp, compiled = both_tiers(mb.build())
    assert interp(64, 0xABCD) == compiled(64, 0xABCD) == 0xABCD


def test_compiled_bounds_check_traps():
    mb = ModuleBuilder("t")
    mb.add_memory(1, 1)
    f = mb.func("f", params=[I32], results=[I32], export=True)
    f.local_get(0).i32_load()
    f.end()
    inst = instantiate(mb.build())
    ctx = compile_instance(inst)
    idx = inst.func_index_of("f")
    with pytest.raises(Trap):
        ctx.invoke(idx, (70000,))


def test_compiled_div_by_zero_traps():
    mb = ModuleBuilder("t")
    f = mb.func("f", params=[I32, I32], results=[I32], export=True)
    f.local_get(0).local_get(1).op("i32.div_u")
    f.end()
    inst = instantiate(mb.build())
    ctx = compile_instance(inst)
    with pytest.raises(TrapDivByZero):
        ctx.invoke(inst.func_index_of("f"), (1, 0))


def test_compiled_indirect_call_check():
    mb = ModuleBuilder("t")
    g = mb.func("g", params=[I32, I32], results=[I32])
    g.local_get(0).local_get(1).op("i32.add")
    g.end()
    mb.add_elem(0, [mb.func_index("g")])
    f = mb.func("f", results=[I32], export=True)
    f.i32_const(1)
    f.i32_const(0)
    f.call_indirect([I32], [I32])  # wrong signature
    f.end()
    inst = instantiate(mb.build())
    ctx = compile_instance(inst)
    with pytest.raises(TrapIndirectCall):
        ctx.invoke(inst.func_index_of("f"), ())


def test_host_calls_from_compiled():
    mb = ModuleBuilder("t")
    mb.import_func("env", "triple", params=[I32], results=[I32])
    f = mb.func("f", params=[I32], results=[I32], export=True)
    f.local_get(0).call("triple")
    f.end()
    imports = {"env": {"triple": lambda x: x * 3}}
    inst = instantiate(mb.build(), imports)
    ctx = compile_instance(inst)
    assert ctx.invoke(inst.func_index_of("f"), (7,)) == 21


def test_compiled_faster_than_interp():
    import time

    mb = ModuleBuilder("t")
    f = mb.func("f", params=[I32], results=[I32], export=True)
    acc = f.add_local(I32)
    with f.block():
        with f.loop():
            f.local_get(0).op("i32.eqz")
            f.br_if(1)
            f.local_get(acc).local_get(0).op("i32.mul")
            f.i32_const(2654435761).op("i32.xor").local_set(acc)
            f.local_get(0).i32_const(1).op("i32.sub").local_set(0)
            f.br(0)
    f.local_get(acc)
    f.end()
    module = mb.build()
    interp, compiled = both_tiers(module)
    n = 30000
    t0 = time.perf_counter()
    r1 = interp(n)
    t_interp = time.perf_counter() - t0
    t0 = time.perf_counter()
    r2 = compiled(n)
    t_compiled = time.perf_counter() - t0
    assert r1 == r2
    assert t_compiled < t_interp  # the AoT tier must actually be faster


_OPS = ["i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or", "i32.xor",
        "i32.shl", "i32.shr_u", "i32.shr_s", "i32.rotl", "i32.rotr",
        "i32.eq", "i32.lt_s", "i32.lt_u", "i32.ge_s"]


@st.composite
def program(draw):
    prog = []
    depth = 0
    for _ in range(draw(st.integers(1, 40))):
        if depth >= 2 and draw(st.booleans()):
            prog.append((draw(st.sampled_from(_OPS)),))
            depth -= 1
        elif depth >= 1 and draw(st.integers(0, 4)) == 0:
            prog.append((draw(st.sampled_from(
                ["i32.clz", "i32.ctz", "i32.popcnt", "i32.eqz",
                 "i32.extend8_s"])),))
        else:
            prog.append(("i32.const", draw(st.integers(0, 2**32 - 1))))
            depth += 1
    while depth > 1:
        prog.append((draw(st.sampled_from(_OPS)),))
        depth -= 1
    return prog


@settings(max_examples=80, deadline=None)
@given(program())
def test_differential_interp_vs_compiled(prog):
    """Property: both tiers compute identical results on random programs."""
    mb = ModuleBuilder("p")
    f = mb.func("f", results=[I32], export=True)
    for instr in prog:
        f.emit(instr)
    f.end()
    module = mb.build()
    interp, compiled = both_tiers(module)
    assert interp() == compiled()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.sampled_from(["i32.div_s", "i32.div_u", "i32.rem_s", "i32.rem_u"]))
def test_differential_division(a, b, op):
    mb = ModuleBuilder("p")
    f = mb.func("f", params=[I32, I32], results=[I32], export=True)
    f.local_get(0).local_get(1).op(op)
    f.end()
    interp, compiled = both_tiers(mb.build())
    r1 = e1 = r2 = e2 = None
    try:
        r1 = interp(a, b)
    except Trap as exc:
        e1 = exc.kind
    try:
        r2 = compiled(a, b)
    except Trap as exc:
        e2 = exc.kind
    assert (r1, e1) == (r2, e2)


def test_non_finite_f64_constants_compile():
    mb = ModuleBuilder("inf")
    f = mb.func("f", params=[F64], results=[F64], export=True)
    f.f64_const(float("-inf")).local_get(0).op("f64.max")
    f.f64_const(float("nan")).op("f64.add")
    f.f64_const(float("inf")).op("f64.min")
    f.end()
    interp, compiled = both_tiers(mb.build())
    for x in (1.5, float("inf")):
        assert repr(interp(x)) == repr(compiled(x))


def test_compiled_code_is_cached_per_module_until_gc():
    from repro.wasm.compile import compile_module
    from repro.wasm.opt import gc_functions

    mb = ModuleBuilder("cache")
    g = mb.func("unused", params=[I32], results=[I32])
    g.local_get(0).end()
    f = mb.func("f", params=[I32], results=[I32], export=True)
    f.local_get(0).i32_const(1).op("i32.add").end()
    module = mb.build()
    codes = compile_module(module)
    assert compile_module(module) is codes
    gc_functions(module)          # renumbers f: the cache must go
    assert compile_module(module) is not codes
    interp, compiled = both_tiers(module)
    assert interp(41) == compiled(41) == 42
