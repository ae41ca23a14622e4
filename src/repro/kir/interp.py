"""The KIR interpreter — the simulated CPU.

Executes one instruction per :meth:`Interpreter.step`, which is what lets
the custom scheduler (paper §10.3) interleave threads at instruction
granularity.  Memory-accessing instructions take one of two paths:

* **plain** (uninstrumented): direct memory access — the baseline kernel
  build Syzkaller would fuzz;
* **instrumented**: routed through OEMU callbacks — the OZZ kernel build
  (paper Figure 2), which can delay stores, version loads, and profile.

Both paths run the fault and KASAN oracles at access time, mirroring how
a real kernel faults and how KASAN's compile-time checks fire when the
access executes.

The interpreter is generic over a ``machine`` object (in practice
:class:`repro.kernel.kernel.Kernel`; see the
:class:`repro.machine.ExecutionMachine` protocol) that provides::

    program        linked Program being executed
    memory         repro.mem.Memory
    oemu           repro.oemu.Oemu or None
    kasan          repro.oracles.Kasan
    fault_oracle   repro.oracles.FaultOracle
    helpers        dict name -> callable(machine, thread, *args) -> int|None
    deps           repro.oemu.DependencyTracker or None
    kcov           repro.fuzzer.kcov.KCov or None
    trace          repro.trace.TraceSink (NULL_SINK when not tracing)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ExecutionLimitExceeded, KernelCrash, KirError
from repro.kir.function import Function, Program
from repro.kir.insn import (
    AtomicOp,
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
    Reg,
    Ret,
    Store,
    branch_taken,
    eval_binop,
)
from repro.mem.memory import MemoryFault
from repro.oracles.report import CrashReport, stack_overflow_title
from repro.trace.events import Step
from repro.trace.sink import NULL_SINK

#: Default per-syscall instruction budget.  Bounds loops and spins;
#: recursion is bounded by the kernel stack (:data:`MAX_CALL_DEPTH`).
DEFAULT_FUEL = 200_000

#: x86-64 kernel stack size (``THREAD_SIZE`` without KASAN: 16 KiB).
THREAD_SIZE = 16 * 1024
#: Stack bytes one KIR frame stands for: return address, frame pointer
#: and the six callee-saved registers.
FRAME_BYTES = 8 * 8
#: Frames a simulated kernel thread can hold; the next call hits the
#: stack guard page.
MAX_CALL_DEPTH = THREAD_SIZE // FRAME_BYTES


class HelperRetry(Exception):
    """Raised by a helper to re-execute the same instruction next step.

    Used by blocking primitives (spinlock acquisition) so a thread spins
    without advancing, letting the scheduler run another thread.
    """


@dataclass
class Frame:
    """One activation record."""

    function: Function
    index: int = 0
    regs: Dict[str, int] = field(default_factory=dict)
    ret_dst: Optional[Reg] = None  # where the caller wants the return value
    #: Decoded-dispatch cache: this function's bound closures, filled in
    #: by the interpreter on the frame's first step (never serialized).
    ops: Optional[list] = field(default=None, repr=False, compare=False)


class ThreadCtx:
    """One simulated kernel thread, pinned to a CPU."""

    def __init__(self, thread_id: int, cpu: int, fuel: int = DEFAULT_FUEL) -> None:
        self.thread_id = thread_id
        self.cpu = cpu
        self.frames: List[Frame] = []
        self.finished = False
        self.retval: int = 0
        self.fuel = fuel
        self.steps = 0
        self.syscall_name: str = ""  # set when entering through a syscall

    @property
    def frame(self) -> Frame:
        return self.frames[-1]

    @property
    def current_function(self) -> str:
        return self.frames[-1].function.name if self.frames else "<none>"

    def current_insn(self) -> Optional[Insn]:
        """The instruction about to execute (None when finished)."""
        if self.finished or not self.frames:
            return None
        frame = self.frames[-1]
        return frame.function.insns[frame.index]

    def call(self, function: Function, args: Tuple[int, ...], ret_dst: Optional[Reg] = None) -> None:
        """Push a frame for ``function``: every frame push goes through here.

        A push past :data:`MAX_CALL_DEPTH` raises :class:`KernelCrash`,
        the way Linux faults on the stack guard page.  Both engines
        advance the caller's index past the call before pushing, so the
        call instruction is ``insns[index - 1]``.
        """
        if len(args) != len(function.params):
            raise KirError(
                f"{function.name} expects {len(function.params)} args, got {len(args)}"
            )
        if len(self.frames) >= MAX_CALL_DEPTH:
            caller = self.frames[-1]
            name = caller.function.name
            raise KernelCrash(
                CrashReport(
                    title=stack_overflow_title(name),
                    oracle="fault",
                    function=name,
                    inst_addr=caller.function.insns[caller.index - 1].addr,
                    detail=(
                        f"call to {function.name} at depth {MAX_CALL_DEPTH} overflows "
                        f"the {THREAD_SIZE}-byte kernel stack "
                        f"({FRAME_BYTES} bytes per frame)"
                    ),
                )
            )
        frame = Frame(function=function, regs=dict(zip(function.params, args)), ret_dst=ret_dst)
        self.frames.append(frame)

    def __repr__(self) -> str:
        where = f"{self.current_function}[{self.frames[-1].index}]" if self.frames else "done"
        return f"<Thread {self.thread_id} cpu{self.cpu} at {where}>"


class Interpreter:
    """Stepwise executor over a machine.

    Two engines with identical observable behaviour (the differential
    suites prove it): the reference engine dispatches through
    :meth:`_execute` (kept verbatim for differential testing), the
    decoded engine runs pre-compiled closures from
    :mod:`repro.kir.decode`.  ``decoded`` picks between them; a machine
    with a dependency tracker always runs the reference engine, because
    the decoded closures are deps-free by design.

    Per-step machine attributes (``kcov``, ``trace``) are hoisted into
    the interpreter and refreshed by :meth:`rebind`, which the machine
    calls whenever a sink or coverage collector is swapped (and on
    :meth:`Kernel.reset`).
    """

    def __init__(self, machine, *, decoded: bool = False) -> None:
        self.machine = machine
        self._bound = None
        self._codes = None
        if decoded and getattr(machine, "deps", None) is None:
            from repro.kir.decode import BoundProgram

            self._bound = BoundProgram(machine)
            self._codes = self._bound.by_func
        self.rebind()

    def rebind(self) -> None:
        """Re-hoist machine attributes the step loop caches.

        Must be called after swapping ``machine.trace`` / ``machine.kcov``
        (the machine's property setters do) so the hoisted copies do not
        go stale.  Decoded closures themselves never need re-binding:
        they reference only machine components that live as long as the
        machine (memory, oemu, oracles, the helpers dict).
        """
        machine = self.machine
        self._kcov = getattr(machine, "kcov", None)
        trace = getattr(machine, "trace", None)
        self._trace = NULL_SINK if trace is None else trace

    @property
    def unobserved_decoded(self) -> bool:
        """True when decoded closures can run without per-step dispatch:
        the decoded engine is active and no observer (coverage collector
        or trace sink) needs to see individual instruction retirements."""
        return self._codes is not None and self._kcov is None and not self._trace.active

    # -- public API -----------------------------------------------------------

    def spawn(self, func_name: str, args: Tuple[int, ...] = (), *, thread_id: int = 0, cpu: int = 0, fuel: int = DEFAULT_FUEL) -> ThreadCtx:
        thread = ThreadCtx(thread_id, cpu, fuel)
        thread.call(self.machine.program.function(func_name), args)
        return thread

    def step(self, thread: ThreadCtx) -> bool:
        """Execute one instruction; returns True while the thread runs.

        This is the execution stack's single retirement dispatch point:
        every instruction that retires emits exactly one
        :class:`~repro.trace.events.Step` event through the machine's
        trace sink (skipped entirely when the no-op sink is attached).
        """
        if thread.finished:
            return False
        if thread.fuel <= 0:
            raise ExecutionLimitExceeded(
                f"thread {thread.thread_id} exceeded fuel in {thread.current_function}"
            )
        thread.fuel -= 1
        thread.steps += 1
        frame = thread.frames[-1]
        if self._codes is None:
            # Reference engine: isinstance dispatch over the Insn object.
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
        # Decoded engine: the Insn object is only touched when an
        # observer (kcov / trace sink) needs its address.
        index = frame.index
        addr = None
        kcov = self._kcov
        if kcov is not None:
            addr = frame.function.insns[index].addr
            kcov.on_insn(thread.thread_id, addr)
        ops = frame.ops
        if ops is None:
            func = frame.function
            ops = self._codes.get(id(func))
            if ops is None:
                ops = self._bound.bind_function(func)
            frame.ops = ops
        try:
            advance = ops[index](thread, frame)
        except HelperRetry:
            return True  # same pc next step; the insn did not retire
        if advance and not thread.finished and thread.frames and thread.frames[-1] is frame:
            frame.index += 1
        trace = self._trace
        if trace.active:
            if addr is None:
                addr = frame.function.insns[index].addr
            trace.emit(Step(thread.thread_id, addr))
        return not thread.finished

    def run(self, thread: ThreadCtx, max_steps: Optional[int] = None) -> int:
        """Run a thread to completion; returns its return value."""
        if max_steps is None and self.unobserved_decoded:
            # Nobody observes instruction retirement (no coverage, no
            # trace sink) and there is no step cap, so the per-step
            # dispatch through step() is pure overhead — run the decoded
            # closures in a tight loop instead.
            return self._run_decoded(thread)
        steps = 0
        step = self.step  # hoisted: one bound-method lookup per run
        while step(thread):
            steps += 1
            if max_steps is not None and steps >= max_steps:
                raise ExecutionLimitExceeded(
                    f"thread {thread.thread_id} still running after {steps} steps"
                )
        return thread.retval

    def _run_decoded(self, thread: ThreadCtx) -> int:
        """Run-to-completion inner loop for the decoded engine.

        Equivalent to ``while self.step(thread): pass`` when no observer
        is attached: fuel/step accounting, frame switching, and
        :class:`HelperRetry` behave identically — only the per-step
        attribute re-checks and the method-call boundary are hoisted out.
        """
        codes = self._codes
        bound = self._bound
        frames = thread.frames
        while not thread.finished:
            frame = frames[-1]
            ops = frame.ops
            if ops is None:
                func = frame.function
                ops = codes.get(id(func))
                if ops is None:
                    ops = bound.bind_function(func)
                frame.ops = ops
            # Stay in this frame until a call/ret swaps the top of stack.
            while True:
                if thread.fuel <= 0:
                    raise ExecutionLimitExceeded(
                        f"thread {thread.thread_id} exceeded fuel in {thread.current_function}"
                    )
                thread.fuel -= 1
                thread.steps += 1
                index = frame.index
                try:
                    advance = ops[index](thread, frame)
                except HelperRetry:
                    continue  # same pc next step; the insn did not retire
                if thread.finished:
                    return thread.retval
                if frames[-1] is not frame:
                    break  # call/ret: re-enter outer loop with new frame
                if advance:
                    frame.index = index + 1
        return thread.retval

    def call_function(self, func_name: str, args: Tuple[int, ...] = (), *, thread_id: int = 0, cpu: int = 0) -> int:
        """Convenience: spawn + run a function to completion."""
        thread = self.spawn(func_name, args, thread_id=thread_id, cpu=cpu)
        return self.run(thread)

    # -- evaluation ----------------------------------------------------------------

    def _eval(self, frame: Frame, op: Operand) -> int:
        if isinstance(op, Imm):
            return op.value & MASK64
        value = frame.regs.get(op.name)
        if value is None:
            raise KirError(
                f"{frame.function.name}[{frame.index}]: register %{op.name} undefined"
            )
        return value & MASK64

    @staticmethod
    def _reg_name(op: Operand) -> Optional[str]:
        return op.name if isinstance(op, Reg) else None

    # -- instruction dispatch ----------------------------------------------------------

    def _execute(self, thread: ThreadCtx, frame: Frame, insn: Insn) -> bool:
        """Returns True if the pc should advance normally."""
        m = self.machine
        deps = m.deps

        if isinstance(insn, Mov):
            frame.regs[insn.dst.name] = self._eval(frame, insn.src)
            if deps:
                deps.on_mov(insn.dst.name, self._reg_name(insn.src))
            return True

        if isinstance(insn, BinOp):
            frame.regs[insn.dst.name] = eval_binop(
                insn.op, self._eval(frame, insn.lhs), self._eval(frame, insn.rhs)
            )
            if deps:
                deps.on_binop(insn.dst.name, self._reg_name(insn.lhs), self._reg_name(insn.rhs))
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
            if deps:
                deps.on_load(insn.addr, insn.dst.name, self._reg_name(insn.base))
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
            if deps:
                deps.on_store(insn.addr, self._reg_name(insn.src), self._reg_name(insn.base))
            return True

        if isinstance(insn, Barrier):
            if insn.instrumented and m.oemu is not None:
                m.oemu.on_barrier(thread.thread_id, insn.addr, insn.kind, thread.current_function)
            return True

        if isinstance(insn, AtomicRMW):
            return self._execute_atomic(thread, frame, insn)

        if isinstance(insn, Branch):
            if deps:
                deps.on_branch(self._reg_name(insn.lhs), self._reg_name(insn.rhs))
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

    # -- oracle hooks --------------------------------------------------------------------

    def _check_access(self, thread: ThreadCtx, insn: Insn, addr: int, size: int, is_write: bool) -> None:
        m = self.machine
        try:
            m.memory.check(addr, size, is_write)
        except MemoryFault as fault:
            m.fault_oracle.on_fault(fault, thread.current_function, insn.addr)
        m.kasan.check_access(addr, size, is_write, thread.current_function, insn.addr)


def _missing_atomic_ret(func_name: str, index: int, op: AtomicOp, dst: str) -> KirError:
    """Diagnostic for an OEMU path that deferred the rmw callback.

    Shared with :mod:`repro.kir.decode` so both engines raise the same
    error instead of an opaque ``KeyError``.
    """
    return KirError(
        f"{func_name}[{index}]: atomic {op.name} deferred its rmw callback; "
        f"no return value for %{dst}"
    )


def _apply_atomic(op: AtomicOp, old: int, operand: int, expected: Optional[int]) -> Tuple[int, int]:
    """Returns (new_value, return_value) for an atomic RMW."""
    if op is AtomicOp.TEST_AND_SET_BIT:
        bit = 1 << operand
        return old | bit, 1 if old & bit else 0
    if op is AtomicOp.SET_BIT:
        return old | (1 << operand), 0
    if op is AtomicOp.CLEAR_BIT:
        return old & ~(1 << operand) & MASK64, 0
    if op is AtomicOp.XCHG:
        return operand, old
    if op is AtomicOp.CMPXCHG:
        if expected is None:
            raise KirError("cmpxchg requires an expected value")
        return (operand, old) if old == expected else (old, old)
    if op is AtomicOp.ADD_RETURN:
        new = (old + operand) & MASK64
        return new, new
    if op is AtomicOp.FETCH_ADD:
        return (old + operand) & MASK64, old
    raise KirError(f"unknown atomic op {op}")
