"""Pre-decoded closure dispatch — the KIR execution engine.

Interpreting an :class:`~repro.kir.insn.Insn` directly means a 13-way
``isinstance`` chain and re-examining every operand on every retired
instruction.  This module removes both costs by splitting execution
into three phases:

1. **decode** (once per linked :class:`~repro.kir.function.Program`):
   every instruction is compiled to a *factory*.  Operand kinds (``Imm``
   vs ``Reg``) are resolved here — an immediate becomes a pre-masked
   Python int captured in the closure, a register becomes a pre-bound
   name — so the hot path never touches an ``Operand`` object again.
   The decoded program is memoized on the ``Program`` object, so every
   machine, test and batch that executes the same image shares one
   decode pass.

2. **bind** (lazily, per machine, per function): each factory is called
   with the machine, producing the executable closure.  Machine-level
   specialization happens here: ``insn.instrumented and oemu`` picks the
   OEMU callback path or the direct-memory path, and method lookups
   (``memory.check``, ``kasan.check_access``, ``memory.load``...) are
   hoisted into closure cells.

3. **execute**: ``closure(thread, frame) -> bool`` — the return value is
   the advance flag (True = move the pc to the next instruction), and
   the closure may raise ``HelperRetry`` / ``KernelCrash`` / ``KirError``.
   Crash titles, register error messages, OEMU callbacks, oracle
   invocations and their order are pinned instruction-for-instruction
   to an ``isinstance``-dispatch oracle kept in ``tests/kir_reference.py``
   (``tests/test_decode_differential.py`` and
   ``tests/test_prop_engine.py`` assert it, event streams included).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import KirError
from repro.kir.function import Function, Program
from repro.kir.insn import (
    AtomicRMW,
    Barrier,
    BinOp,
    BinOpKind,
    Branch,
    Call,
    Cond,
    Helper,
    ICall,
    Imm,
    Insn,
    Jump,
    Load,
    MASK64,
    Mov,
    Nop,
    Operand,
    Reg,
    Ret,
    Store,
)
from repro.mem.memory import MemoryFault

#: closure(thread, frame) -> advance flag.
OpClosure = Callable[..., bool]
#: factory(machine) -> OpClosure, produced once per instruction at decode.
OpFactory = Callable[..., OpClosure]

#: Memoization slot on Program objects (decode once, share everywhere).
_CACHE_ATTR = "_decoded_cache"


def _undef(func_name: str, index: int, reg_name: str) -> KirError:
    """The error every closure raises when it reads an undefined register."""
    return KirError(f"{func_name}[{index}]: register %{reg_name} undefined")


def _operand_spec(op: Operand) -> Tuple[Optional[str], int]:
    """(register name, 0) for a Reg, (None, pre-masked value) for an Imm."""
    if isinstance(op, Reg):
        return op.name, 0
    return None, op.value & MASK64


def _arg_specs(ops: Tuple[Operand, ...]) -> Tuple[Tuple[Optional[str], int], ...]:
    return tuple(_operand_spec(op) for op in ops)


def _read_args(regs, specs, func_name: str, index: int) -> Tuple[int, ...]:
    """Evaluate pre-decoded argument specs in operand order."""
    out = []
    for name, const in specs:
        if name is None:
            out.append(const)
        else:
            value = regs.get(name)
            if value is None:
                raise _undef(func_name, index, name)
            out.append(value & MASK64)
    return tuple(out)


# ALU ops as direct two-argument callables (inputs arrive pre-masked),
# mirroring repro.kir.insn.eval_binop without its dispatch chain.
_BINOPS: Dict[BinOpKind, Callable[[int, int], int]] = {
    BinOpKind.ADD: lambda a, b: (a + b) & MASK64,
    BinOpKind.SUB: lambda a, b: (a - b) & MASK64,
    BinOpKind.MUL: lambda a, b: (a * b) & MASK64,
    BinOpKind.AND: lambda a, b: a & b,
    BinOpKind.OR: lambda a, b: a | b,
    BinOpKind.XOR: lambda a, b: a ^ b,
    BinOpKind.SHL: lambda a, b: (a << (b & 63)) & MASK64,
    BinOpKind.SHR: lambda a, b: a >> (b & 63),
    BinOpKind.EQ: lambda a, b: int(a == b),
    BinOpKind.NE: lambda a, b: int(a != b),
    BinOpKind.LTU: lambda a, b: int(a < b),
    BinOpKind.LEU: lambda a, b: int(a <= b),
    BinOpKind.GTU: lambda a, b: int(a > b),
    BinOpKind.GEU: lambda a, b: int(a >= b),
}

# Branch conditions, mirroring repro.kir.insn.branch_taken.
_CONDS: Dict[Cond, Callable[[int, int], bool]] = {
    Cond.EQ: lambda a, b: a == b,
    Cond.NE: lambda a, b: a != b,
    Cond.LTU: lambda a, b: a < b,
    Cond.LEU: lambda a, b: a <= b,
    Cond.GTU: lambda a, b: a > b,
    Cond.GEU: lambda a, b: a >= b,
}


# -- per-instruction decoders -------------------------------------------------


def _decode_mov(insn: Mov, fname: str, index: int) -> OpFactory:
    dst = insn.dst.name
    sname, sconst = _operand_spec(insn.src)

    def make(m):
        if sname is None:
            def op(thread, frame, dst=dst, val=sconst):
                frame.regs[dst] = val
                return True
        else:
            def op(thread, frame, dst=dst, src=sname):
                regs = frame.regs
                value = regs.get(src)
                if value is None:
                    raise _undef(fname, index, src)
                regs[dst] = value & MASK64
                return True
        return op

    return make


def _decode_binop(insn: BinOp, fname: str, index: int) -> OpFactory:
    dst = insn.dst.name
    fn = _BINOPS[insn.op]
    lname, lconst = _operand_spec(insn.lhs)
    rname, rconst = _operand_spec(insn.rhs)

    def make(m):
        if lname is None and rname is None:
            folded = fn(lconst, rconst)

            def op(thread, frame, dst=dst, val=folded):
                frame.regs[dst] = val
                return True
        elif rname is None:
            def op(thread, frame, dst=dst, l=lname, rc=rconst, fn=fn):
                regs = frame.regs
                a = regs.get(l)
                if a is None:
                    raise _undef(fname, index, l)
                regs[dst] = fn(a & MASK64, rc)
                return True
        elif lname is None:
            def op(thread, frame, dst=dst, lc=lconst, r=rname, fn=fn):
                regs = frame.regs
                b = regs.get(r)
                if b is None:
                    raise _undef(fname, index, r)
                regs[dst] = fn(lc, b & MASK64)
                return True
        else:
            def op(thread, frame, dst=dst, l=lname, r=rname, fn=fn):
                regs = frame.regs
                a = regs.get(l)
                if a is None:
                    raise _undef(fname, index, l)
                b = regs.get(r)
                if b is None:
                    raise _undef(fname, index, r)
                regs[dst] = fn(a & MASK64, b & MASK64)
                return True
        return op

    return make


def _decode_load(insn: Load, fname: str, index: int) -> OpFactory:
    dst = insn.dst.name
    off = insn.offset
    size = insn.size
    annot = insn.annot
    ia = insn.addr
    bname, bconst = _operand_spec(insn.base)
    static_addr = None if bname is not None else (bconst + off) & MASK64
    instrumented = insn.instrumented

    def make(m):
        check = m.memory.check
        on_fault = m.fault_oracle.on_fault
        kasan_check = m.kasan.check_access
        oemu = m.oemu if instrumented else None
        if oemu is not None:
            on_load = oemu.on_load
            if bname is None:
                def op(thread, frame, addr=static_addr):
                    try:
                        check(addr, size, False)
                    except MemoryFault as fault:
                        on_fault(fault, fname, ia)
                    kasan_check(addr, size, False, fname, ia)
                    frame.regs[dst] = on_load(
                        thread.thread_id, ia, annot, addr, size, fname
                    )
                    return True
            else:
                def op(thread, frame, base=bname):
                    regs = frame.regs
                    b = regs.get(base)
                    if b is None:
                        raise _undef(fname, index, base)
                    addr = ((b & MASK64) + off) & MASK64
                    try:
                        check(addr, size, False)
                    except MemoryFault as fault:
                        on_fault(fault, fname, ia)
                    kasan_check(addr, size, False, fname, ia)
                    regs[dst] = on_load(
                        thread.thread_id, ia, annot, addr, size, fname
                    )
                    return True
        else:
            # The uninstrumented fast path: direct memory access.
            load = m.memory.load
            if bname is None:
                def op(thread, frame, addr=static_addr):
                    try:
                        check(addr, size, False)
                    except MemoryFault as fault:
                        on_fault(fault, fname, ia)
                    kasan_check(addr, size, False, fname, ia)
                    frame.regs[dst] = load(addr, size, check=False)
                    return True
            else:
                def op(thread, frame, base=bname):
                    regs = frame.regs
                    b = regs.get(base)
                    if b is None:
                        raise _undef(fname, index, base)
                    addr = ((b & MASK64) + off) & MASK64
                    try:
                        check(addr, size, False)
                    except MemoryFault as fault:
                        on_fault(fault, fname, ia)
                    kasan_check(addr, size, False, fname, ia)
                    regs[dst] = load(addr, size, check=False)
                    return True
        return op

    return make


def _decode_store(insn: Store, fname: str, index: int) -> OpFactory:
    off = insn.offset
    size = insn.size
    annot = insn.annot
    ia = insn.addr
    bname, bconst = _operand_spec(insn.base)
    sname, sconst = _operand_spec(insn.src)
    static_addr = None if bname is not None else (bconst + off) & MASK64
    instrumented = insn.instrumented

    def make(m):
        check = m.memory.check
        on_fault = m.fault_oracle.on_fault
        kasan_check = m.kasan.check_access
        oemu = m.oemu if instrumented else None
        if oemu is not None:
            on_store = oemu.on_store

            def commit(thread, addr, value):
                on_store(thread.thread_id, ia, annot, addr, size, value, fname)
        else:
            mem_store = m.memory.store

            def commit(thread, addr, value):
                mem_store(addr, size, value, check=False)

        if bname is None and sname is None:
            def op(thread, frame, addr=static_addr, value=sconst):
                try:
                    check(addr, size, True)
                except MemoryFault as fault:
                    on_fault(fault, fname, ia)
                kasan_check(addr, size, True, fname, ia)
                commit(thread, addr, value)
                return True
        elif bname is None:
            def op(thread, frame, addr=static_addr, src=sname):
                value = frame.regs.get(src)
                if value is None:
                    raise _undef(fname, index, src)
                value &= MASK64
                try:
                    check(addr, size, True)
                except MemoryFault as fault:
                    on_fault(fault, fname, ia)
                kasan_check(addr, size, True, fname, ia)
                commit(thread, addr, value)
                return True
        elif sname is None:
            def op(thread, frame, base=bname, value=sconst):
                b = frame.regs.get(base)
                if b is None:
                    raise _undef(fname, index, base)
                addr = ((b & MASK64) + off) & MASK64
                try:
                    check(addr, size, True)
                except MemoryFault as fault:
                    on_fault(fault, fname, ia)
                kasan_check(addr, size, True, fname, ia)
                commit(thread, addr, value)
                return True
        else:
            def op(thread, frame, base=bname, src=sname):
                regs = frame.regs
                b = regs.get(base)
                if b is None:
                    raise _undef(fname, index, base)
                addr = ((b & MASK64) + off) & MASK64
                value = regs.get(src)
                if value is None:
                    raise _undef(fname, index, src)
                value &= MASK64
                try:
                    check(addr, size, True)
                except MemoryFault as fault:
                    on_fault(fault, fname, ia)
                kasan_check(addr, size, True, fname, ia)
                commit(thread, addr, value)
                return True
        return op

    return make


def _decode_barrier(insn: Barrier, fname: str, index: int) -> OpFactory:
    kind = insn.kind
    ia = insn.addr
    instrumented = insn.instrumented

    def make(m):
        oemu = m.oemu if instrumented else None
        if oemu is None:
            def op(thread, frame):
                return True
        else:
            on_barrier = oemu.on_barrier

            def op(thread, frame):
                on_barrier(thread.thread_id, ia, kind, fname)
                return True
        return op

    return make


def _decode_atomic(insn: AtomicRMW, fname: str, index: int) -> OpFactory:
    from repro.kir.interp import _apply_atomic, _missing_atomic_ret

    op_kind = insn.op
    off = insn.offset
    size = insn.size
    ia = insn.addr
    ordering = insn.ordering
    dst = insn.dst.name if insn.dst is not None else None
    bname, bconst = _operand_spec(insn.base)
    static_addr = None if bname is not None else (bconst + off) & MASK64
    oname, oconst = _operand_spec(insn.operand)
    has_expected = insn.expected is not None
    ename, econst = _operand_spec(insn.expected) if has_expected else (None, 0)
    instrumented = insn.instrumented

    def make(m):
        check = m.memory.check
        on_fault = m.fault_oracle.on_fault
        kasan_check = m.kasan.check_access
        oemu = m.oemu if instrumented else None
        on_atomic = oemu.on_atomic if oemu is not None else None
        mem_load = m.memory.load
        mem_store = m.memory.store

        def op(thread, frame):
            regs = frame.regs
            if bname is None:
                addr = static_addr
            else:
                b = regs.get(bname)
                if b is None:
                    raise _undef(fname, index, bname)
                addr = ((b & MASK64) + off) & MASK64
            if oname is None:
                operand = oconst
            else:
                operand = regs.get(oname)
                if operand is None:
                    raise _undef(fname, index, oname)
                operand &= MASK64
            if not has_expected:
                expected = None
            elif ename is None:
                expected = econst
            else:
                expected = regs.get(ename)
                if expected is None:
                    raise _undef(fname, index, ename)
                expected &= MASK64
            try:
                check(addr, size, True)
            except MemoryFault as fault:
                on_fault(fault, fname, ia)
            kasan_check(addr, size, True, fname, ia)

            result_box = {}

            def rmw(old: int) -> int:
                new, ret = _apply_atomic(op_kind, old, operand, expected)
                result_box["ret"] = ret
                return new

            if on_atomic is not None:
                on_atomic(thread.thread_id, ia, ordering, addr, size, rmw, fname)
            else:
                old = mem_load(addr, size, check=False)
                mem_store(addr, size, rmw(old), check=False)
            if dst is not None:
                if "ret" not in result_box:
                    raise _missing_atomic_ret(fname, index, op_kind, dst)
                regs[dst] = result_box["ret"] & MASK64
            return True

        return op

    return make


def _decode_branch(insn: Branch, fname: str, index: int) -> OpFactory:
    cmp = _CONDS[insn.cond]
    target = insn.target
    lname, lconst = _operand_spec(insn.lhs)
    rname, rconst = _operand_spec(insn.rhs)

    def make(m):
        def op(thread, frame):
            regs = frame.regs
            if lname is None:
                a = lconst
            else:
                a = regs.get(lname)
                if a is None:
                    raise _undef(fname, index, lname)
                a &= MASK64
            if rname is None:
                b = rconst
            else:
                b = regs.get(rname)
                if b is None:
                    raise _undef(fname, index, rname)
                b &= MASK64
            if cmp(a, b):
                frame.index = target
                return False
            return True

        return op

    return make


def _decode_jump(insn: Jump, fname: str, index: int) -> OpFactory:
    target = insn.target

    def make(m):
        def op(thread, frame):
            frame.index = target
            return False

        return op

    return make


def _decode_call(insn: Call, fname: str, index: int) -> OpFactory:
    func_name = insn.func
    specs = _arg_specs(insn.args)
    dst = insn.dst

    def make(m):
        callee = m.program.function(func_name)

        def op(thread, frame):
            args = _read_args(frame.regs, specs, fname, index)
            frame.index += 1  # return point
            thread.call(callee, args, ret_dst=dst)
            return False

        return op

    return make


def _decode_icall(insn: ICall, fname: str, index: int) -> OpFactory:
    ia = insn.addr
    tname, tconst = _operand_spec(insn.target)
    specs = _arg_specs(insn.args)
    dst = insn.dst

    def make(m):
        resolve = m.program.resolve_func_pointer
        on_bad_call = m.fault_oracle.on_bad_call

        def op(thread, frame):
            if tname is None:
                target = tconst
            else:
                target = frame.regs.get(tname)
                if target is None:
                    raise _undef(fname, index, tname)
                target &= MASK64
            callee = resolve(target)
            if callee is None:
                on_bad_call(target, fname, ia)
            args = _read_args(frame.regs, specs, fname, index)
            frame.index += 1
            thread.call(callee, args, ret_dst=dst)
            return False

        return op

    return make


def _decode_ret(insn: Ret, fname: str, index: int) -> OpFactory:
    src = insn.src
    sname, sconst = _operand_spec(src) if src is not None else (None, 0)

    def make(m):
        def op(thread, frame):
            if sname is None:
                value = sconst
            else:
                value = frame.regs.get(sname)
                if value is None:
                    raise _undef(fname, index, sname)
                value &= MASK64
            frames = thread.frames
            callee_frame = frames.pop()
            if not frames:
                thread.finished = True
                thread.retval = value
            else:
                dst = callee_frame.ret_dst
                if dst is not None:
                    frames[-1].regs[dst.name] = value
            return False

        return op

    return make


def _decode_helper(insn: Helper, fname: str, index: int) -> OpFactory:
    name = insn.name
    specs = _arg_specs(insn.args)
    dst = insn.dst.name if insn.dst is not None else None

    def make(m):
        # Bind the dict, not the entry: helpers may be registered after
        # this function is bound (register_helper mutates in place).
        helpers = m.helpers

        def op(thread, frame):
            args = _read_args(frame.regs, specs, fname, index)
            fn = helpers.get(name)
            if fn is None:
                raise KirError(f"unknown helper {name!r}")
            result = fn(m, thread, *args)  # may raise HelperRetry / KernelCrash
            if dst is not None:
                frame.regs[dst] = (result or 0) & MASK64
            return True

        return op

    return make


def _decode_nop(insn: Nop, fname: str, index: int) -> OpFactory:
    def make(m):
        def op(thread, frame):
            return True

        return op

    return make


_DECODERS = {
    Mov: _decode_mov,
    BinOp: _decode_binop,
    Load: _decode_load,
    Store: _decode_store,
    Barrier: _decode_barrier,
    AtomicRMW: _decode_atomic,
    Branch: _decode_branch,
    Jump: _decode_jump,
    Call: _decode_call,
    ICall: _decode_icall,
    Ret: _decode_ret,
    Helper: _decode_helper,
    Nop: _decode_nop,
}


def decode_insn(insn: Insn, fname: str, index: int) -> OpFactory:
    decoder = _DECODERS.get(type(insn))
    if decoder is None:
        # An instruction type without a decoder fails when it executes,
        # not when its program is decoded.
        def make(m):
            def op(thread, frame):
                raise KirError(f"cannot execute {insn!r}")

            return op

        return make
    return decoder(insn, fname, index)


class DecodedProgram:
    """Per-program factory table: ``id(function) -> [factory, ...]``.

    Machine-independent; produced once per linked program (memoized via
    :func:`decode_program`) and bound lazily per machine by
    :class:`BoundProgram`.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.factories: Dict[int, List[OpFactory]] = {}
        for func in program.functions.values():
            self.factories[id(func)] = [
                decode_insn(insn, func.name, i) for i, insn in enumerate(func.insns)
            ]


def decode_program(program: Program) -> DecodedProgram:
    """Decode ``program``, memoized on the program object itself."""
    cached = getattr(program, _CACHE_ATTR, None)
    if cached is None:
        cached = DecodedProgram(program)
        setattr(program, _CACHE_ATTR, cached)
    else:
        from repro.oemu.profiler import ENGINE_COUNTERS

        ENGINE_COUNTERS.decode_cache_hits += 1
    return cached


class BoundProgram:
    """A decoded program bound to one machine.

    ``by_func`` maps ``id(function)`` to the bound closure list and is
    what the interpreter's step loop consults; functions are bound on
    first execution (most fuzzing inputs touch a small fraction of the
    kernel).  Binding survives :meth:`Kernel.reset` — closures reference
    only machine components that live for the machine's lifetime
    (memory, oemu, oracles, the helpers dict), never per-run state.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        had_cache = getattr(machine.program, _CACHE_ATTR, None) is not None
        self.decoded = decode_program(machine.program)
        self.by_func: Dict[int, List[OpClosure]] = {}
        if had_cache:
            counters = getattr(machine, "engine_counters", None)
            if counters is not None:
                counters.decode_cache_hits += 1

    def bind_function(self, function: Function) -> List[OpClosure]:
        m = self.machine
        factories = self.decoded.factories.get(id(function))
        if factories is None:  # function added after decode (tests)
            factories = [
                decode_insn(insn, function.name, i)
                for i, insn in enumerate(function.insns)
            ]
        ops = [factory(m) for factory in factories]
        self.by_func[id(function)] = ops
        from repro.oemu.profiler import ENGINE_COUNTERS

        ENGINE_COUNTERS.functions_bound += 1
        counters = getattr(m, "engine_counters", None)
        if counters is not None:
            counters.functions_bound += 1
        return ops
