"""The KIR interpreter — the simulated CPU.

Executes one instruction per :meth:`Interpreter.step`, which is what lets
the custom scheduler (paper §10.3) interleave threads at instruction
granularity.  Instructions run as the closures :mod:`repro.kir.decode`
compiles once per program and binds once per machine; memory-accessing
instructions are compiled for one of two paths:

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
    kcov           repro.fuzzer.kcov.KCov or None
    trace          repro.trace.TraceSink (NULL_SINK when not tracing)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ExecutionLimitExceeded, KernelCrash, KirError
from repro.kir.decode import BoundProgram
from repro.kir.function import Function
from repro.kir.insn import AtomicOp, Insn, MASK64, Reg
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
        the way Linux faults on the stack guard page.  Call closures
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

    Runs the decoded closures of :mod:`repro.kir.decode`, bound to this
    machine.  Per-step machine attributes (``kcov``, ``trace``) are
    hoisted into the interpreter and refreshed by :meth:`rebind`, which
    the machine calls whenever a sink or coverage collector is swapped
    (and on :meth:`Kernel.reset`).
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self._bound = BoundProgram(machine)
        self._codes = self._bound.by_func
        self.rebind()

    def rebind(self) -> None:
        """Re-hoist machine attributes the step loop caches.

        Must be called after swapping ``machine.trace`` / ``machine.kcov``
        (the machine's property setters do) so the hoisted copies do not
        go stale.  ``active`` is a class constant on every sink, so it is
        hoisted with the sink.  Decoded closures themselves never need
        re-binding: they reference only machine components that live as
        long as the machine (memory, oemu, oracles, the helpers dict).
        """
        machine = self.machine
        self._kcov = getattr(machine, "kcov", None)
        trace = getattr(machine, "trace", None)
        self._trace = NULL_SINK if trace is None else trace
        self._tracing = self._trace.active

    @property
    def unobserved(self) -> bool:
        """True when no observer (coverage collector or trace sink) needs
        to see individual instruction retirements, so run-to-completion
        loops may skip the per-step dispatch of :meth:`step`."""
        return self._kcov is None and not self._tracing

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
        The ``Insn`` object is only touched when an observer (kcov or a
        trace sink) needs its address.
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
        index = frame.index
        kcov = self._kcov
        if kcov is not None:
            kcov.on_insn(thread.thread_id, frame.function.insns[index].addr)
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
        if self._tracing:
            self._trace.emit(Step(thread.thread_id, frame.function.insns[index].addr))
        return not thread.finished

    def run(self, thread: ThreadCtx, max_steps: Optional[int] = None) -> int:
        """Run a thread to completion; returns its return value."""
        if max_steps is None and self.unobserved:
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
        """Run-to-completion inner loop over the decoded closures.

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


def _missing_atomic_ret(func_name: str, index: int, op: AtomicOp, dst: str) -> KirError:
    """Diagnostic for an OEMU path that deferred the rmw callback.

    Raised by the atomic closures of :mod:`repro.kir.decode` instead of
    an opaque ``KeyError``.
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
