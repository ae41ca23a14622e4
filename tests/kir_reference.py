"""The reference KIR interpreter, kept as a test oracle.

:class:`ReferenceInterpreter` executes each instruction through one
``isinstance`` chain over the :class:`~repro.kir.insn.Insn` object and
re-reads every operand on every step: the most direct reading of KIR's
semantics.  The shipped engine runs closures compiled by
:mod:`repro.kir.decode`; the differential suites run both on the same
inputs and assert every observable equal.

Install the oracle with the ``reference_engine`` fixture (the whole
test) or :func:`on_reference` (one block of a test).  Both patch
``repro.machine.Interpreter``, so every machine booted inside — by
``profile_sti``, ``run_mti``, ``OzzFuzzer`` or ``replay_artifact`` —
runs the oracle.  Every run loop goes through :meth:`step`: the oracle
reports itself observed, so neither ``Interpreter.run`` nor the
scheduler takes a closure-only fast path.
"""

from __future__ import annotations

import contextlib

import pytest

import repro.machine
from repro.errors import ExecutionLimitExceeded, KirError
from repro.kir.insn import (
    AtomicRMW,
    Barrier,
    BinOp,
    Branch,
    Call,
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
    Ret,
    Store,
    branch_taken,
    eval_binop,
)
from repro.kir.interp import (
    Frame,
    HelperRetry,
    Interpreter,
    ThreadCtx,
    _apply_atomic,
    _missing_atomic_ret,
)
from repro.mem.memory import MemoryFault
from repro.trace.events import Step


class ReferenceInterpreter(Interpreter):
    """``isinstance`` dispatch over the ``Insn`` object, one per step."""

    #: Machines booted on the oracle so far (see :func:`on_reference`).
    booted = 0

    def __init__(self, machine) -> None:
        super().__init__(machine)
        ReferenceInterpreter.booted += 1

    @property
    def unobserved(self) -> bool:
        return False

    def step(self, thread: ThreadCtx) -> bool:
        if thread.finished:
            return False
        if thread.fuel <= 0:
            raise ExecutionLimitExceeded(
                f"thread {thread.thread_id} exceeded fuel in {thread.current_function}"
            )
        thread.fuel -= 1
        thread.steps += 1
        frame = thread.frames[-1]
        insn = frame.function.insns[frame.index]
        kcov = self._kcov
        if kcov is not None:
            kcov.on_insn(thread.thread_id, insn.addr)
        try:
            advance = self._execute(thread, frame, insn)
        except HelperRetry:
            return True  # same pc next step; the insn did not retire
        if advance and not thread.finished and thread.frames and thread.frames[-1] is frame:
            frame.index += 1
        trace = self._trace
        if trace.active:
            trace.emit(Step(thread.thread_id, insn.addr))
        return not thread.finished

    # -- evaluation -------------------------------------------------------

    def _eval(self, frame: Frame, op: Operand) -> int:
        if isinstance(op, Imm):
            return op.value & MASK64
        value = frame.regs.get(op.name)
        if value is None:
            raise KirError(
                f"{frame.function.name}[{frame.index}]: register %{op.name} undefined"
            )
        return value & MASK64

    # -- instruction dispatch ---------------------------------------------

    def _execute(self, thread: ThreadCtx, frame: Frame, insn: Insn) -> bool:
        """Returns True if the pc should advance normally."""
        m = self.machine

        if isinstance(insn, Mov):
            frame.regs[insn.dst.name] = self._eval(frame, insn.src)
            return True

        if isinstance(insn, BinOp):
            frame.regs[insn.dst.name] = eval_binop(
                insn.op, self._eval(frame, insn.lhs), self._eval(frame, insn.rhs)
            )
            return True

        if isinstance(insn, Load):
            addr = (self._eval(frame, insn.base) + insn.offset) & MASK64
            self._check_access(thread, insn, addr, insn.size, is_write=False)
            if insn.instrumented and m.oemu is not None:
                value = m.oemu.on_load(
                    thread.thread_id, insn.addr, insn.annot, addr, insn.size, thread.current_function
                )
            else:
                value = m.memory.load(addr, insn.size, check=False)
            frame.regs[insn.dst.name] = value
            return True

        if isinstance(insn, Store):
            addr = (self._eval(frame, insn.base) + insn.offset) & MASK64
            value = self._eval(frame, insn.src)
            self._check_access(thread, insn, addr, insn.size, is_write=True)
            if insn.instrumented and m.oemu is not None:
                m.oemu.on_store(
                    thread.thread_id, insn.addr, insn.annot, addr, insn.size, value, thread.current_function
                )
            else:
                m.memory.store(addr, insn.size, value, check=False)
            return True

        if isinstance(insn, Barrier):
            if insn.instrumented and m.oemu is not None:
                m.oemu.on_barrier(thread.thread_id, insn.addr, insn.kind, thread.current_function)
            return True

        if isinstance(insn, AtomicRMW):
            return self._execute_atomic(thread, frame, insn)

        if isinstance(insn, Branch):
            if branch_taken(insn.cond, self._eval(frame, insn.lhs), self._eval(frame, insn.rhs)):
                frame.index = insn.target
                return False
            return True

        if isinstance(insn, Jump):
            frame.index = insn.target
            return False

        if isinstance(insn, Call):
            callee = m.program.function(insn.func)
            args = tuple(self._eval(frame, a) for a in insn.args)
            frame.index += 1  # return point
            thread.call(callee, args, ret_dst=insn.dst)
            return False

        if isinstance(insn, ICall):
            target = self._eval(frame, insn.target)
            callee = m.program.resolve_func_pointer(target)
            if callee is None:
                m.fault_oracle.on_bad_call(target, thread.current_function, insn.addr)
            args = tuple(self._eval(frame, a) for a in insn.args)
            frame.index += 1
            thread.call(callee, args, ret_dst=insn.dst)
            return False

        if isinstance(insn, Ret):
            value = self._eval(frame, insn.src) if insn.src is not None else 0
            # The popped frame remembers where its caller wanted the
            # return value; re-deriving it from insns[index - 1] breaks
            # when the return point is reached via a branch target.
            callee_frame = thread.frames.pop()
            if not thread.frames:
                thread.finished = True
                thread.retval = value
            else:
                dst = callee_frame.ret_dst
                if dst is not None:
                    thread.frames[-1].regs[dst.name] = value
            return False

        if isinstance(insn, Helper):
            args = tuple(self._eval(frame, a) for a in insn.args)
            fn = m.helpers.get(insn.name)
            if fn is None:
                raise KirError(f"unknown helper {insn.name!r}")
            result = fn(m, thread, *args)  # may raise HelperRetry / KernelCrash
            if insn.dst is not None:
                frame.regs[insn.dst.name] = (result or 0) & MASK64
            return True

        if isinstance(insn, Nop):
            return True

        raise KirError(f"cannot execute {insn!r}")

    def _execute_atomic(self, thread: ThreadCtx, frame: Frame, insn: AtomicRMW) -> bool:
        m = self.machine
        addr = (self._eval(frame, insn.base) + insn.offset) & MASK64
        operand = self._eval(frame, insn.operand)
        expected = self._eval(frame, insn.expected) if insn.expected is not None else None
        self._check_access(thread, insn, addr, insn.size, is_write=True)

        result_box = {}

        def rmw(old: int) -> int:
            new, ret = _apply_atomic(insn.op, old, operand, expected)
            result_box["ret"] = ret
            return new

        if insn.instrumented and m.oemu is not None:
            m.oemu.on_atomic(
                thread.thread_id, insn.addr, insn.ordering, addr, insn.size, rmw, thread.current_function
            )
        else:
            old = m.memory.load(addr, insn.size, check=False)
            m.memory.store(addr, insn.size, rmw(old), check=False)
        if insn.dst is not None:
            if "ret" not in result_box:
                raise _missing_atomic_ret(
                    frame.function.name, frame.index, insn.op, insn.dst.name
                )
            frame.regs[insn.dst.name] = result_box["ret"] & MASK64
        return True

    # -- oracle hooks -----------------------------------------------------

    def _check_access(self, thread: ThreadCtx, insn: Insn, addr: int, size: int, is_write: bool) -> None:
        m = self.machine
        try:
            m.memory.check(addr, size, is_write)
        except MemoryFault as fault:
            m.fault_oracle.on_fault(fault, thread.current_function, insn.addr)
        m.kasan.check_access(addr, size, is_write, thread.current_function, insn.addr)


@contextlib.contextmanager
def on_reference():
    """Boot every machine constructed inside the block on the oracle.

    Fails a block that booted none: a comparison against a machine that
    was booted earlier would silently compare the decoded engine with
    itself.
    """
    before = ReferenceInterpreter.booted
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.machine, "Interpreter", ReferenceInterpreter)
        yield
    assert ReferenceInterpreter.booted > before, "no machine booted on the oracle"


@pytest.fixture
def reference_engine():
    """Run the whole test on the oracle."""
    with on_reference():
        yield
