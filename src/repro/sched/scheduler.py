"""Custom scheduler — deterministic thread interleaving (paper §10.3).

The real OZZ implements this in the hypervisor: a guest thread issues a
``schedule_at(addr)`` hypercall, the hypervisor plants a breakpoint and
suspends/resumes virtual CPUs so exactly one runs at a time.  Our
equivalent drives the stepwise interpreter: one thread runs until it
hits its breakpoint (or finishes), then control passes to the other.

Crucially — and this is the paper's Figure 9 — suspending a thread does
**not** flush its virtual store buffer: a delayed store stays invisible
to the thread that runs next, which is what makes the combination of
interleaving control and OEMU reordering observable.

Breakpoints carry a *policy*:

* ``AFTER``  — switch after the breakpoint instruction executes (used by
  the hypothetical **store** barrier test: the post-barrier store W(d)
  must have committed before the observer runs, Figure 5a);
* ``BEFORE`` — switch just before the instruction executes (used by the
  hypothetical **load** barrier test: the observer must build the store
  history before R(w) runs, Figure 5b).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ExecutionLimitExceeded
from repro.kir.interp import HelperRetry, Interpreter, ThreadCtx
from repro.trace.events import BreakpointHit


class BreakPolicy(enum.Enum):
    BEFORE = "before"
    AFTER = "after"


@dataclass
class Breakpoint:
    """Stop condition: the Nth execution of an instruction address."""

    inst_addr: int
    policy: BreakPolicy = BreakPolicy.AFTER
    hit: int = 1  # stop on the hit-th execution
    _count: int = 0

    def matches(self, addr: Optional[int]) -> bool:
        return addr is not None and addr == self.inst_addr


class StopReason(enum.Enum):
    BREAKPOINT = "breakpoint"
    FINISHED = "finished"


class CustomScheduler:
    """Runs threads one at a time with breakpoint-driven switches."""

    #: Consecutive steps at one pc (a spinning helper) before a thread is
    #: declared deadlocked.  Since exactly one thread runs at a time, a
    #: spinlock held by a *suspended* thread can never be released while
    #: the current thread spins — bail out fast instead of burning the
    #: whole step budget.
    SPIN_LIMIT = 512

    def __init__(self, interp: Interpreter, max_steps: int = 60_000) -> None:
        self.interp = interp
        self.max_steps = max_steps

    def run_until(self, thread: ThreadCtx, breakpoint: Optional[Breakpoint]) -> StopReason:
        """Run ``thread`` until its breakpoint triggers or it finishes.

        With no breakpoint, runs to completion.  Raises
        :class:`ExecutionLimitExceeded` if the step budget is blown or
        the thread spins in place (a lock that can never be released
        under this schedule).
        """
        interp = self.interp
        if breakpoint is None and interp.unobserved:
            # No breakpoint to watch for and nobody observes retirement:
            # the drain phase can run decoded closures directly instead
            # of paying the step() boundary per instruction.
            return self._run_fast(thread)
        steps = 0
        spin = 0
        last_pc = None
        step = interp.step  # hoisted: called once per instruction
        while not thread.finished:
            # Inlined thread.current_insn(): a running thread always has
            # a frame, and this executes once per scheduled instruction.
            frames = thread.frames
            frame = frames[-1]
            addr = frame.function.insns[frame.index].addr
            pc = (len(frames), addr)
            if pc == last_pc:
                spin += 1
                if spin > self.SPIN_LIMIT:
                    raise ExecutionLimitExceeded(
                        f"thread {thread.thread_id} spinning at "
                        f"{thread.current_function} (deadlocked schedule)"
                    )
            else:
                spin = 0
                last_pc = pc
            if (
                breakpoint is not None
                and breakpoint.policy is BreakPolicy.BEFORE
                and breakpoint.matches(addr)
            ):
                breakpoint._count += 1
                if breakpoint._count >= breakpoint.hit:
                    self._note_breakpoint(thread, breakpoint)
                    return StopReason.BREAKPOINT
            step(thread)
            steps += 1
            if steps > self.max_steps:
                raise ExecutionLimitExceeded(
                    f"thread {thread.thread_id} exceeded scheduler budget"
                )
            if (
                breakpoint is not None
                and breakpoint.policy is BreakPolicy.AFTER
                and breakpoint.matches(addr)
            ):
                breakpoint._count += 1
                if breakpoint._count >= breakpoint.hit:
                    self._note_breakpoint(thread, breakpoint)
                    return StopReason.BREAKPOINT
        return StopReason.FINISHED

    def _run_fast(self, thread: ThreadCtx) -> StopReason:
        """Breakpoint-free drain loop over decoded closures.

        Semantically identical to the general ``run_until(thread, None)``
        loop: same fuel accounting, same scheduler step budget (counting
        :class:`HelperRetry` non-retirements, as ``step`` returning True
        does), and same spin detection.  The pc-equality spin check
        reduces to index equality within a frame — two consecutive steps
        can only share a pc when neither was a call or a ret, i.e. when
        they ran in the same frame — so the counter resets on every
        frame switch exactly as a depth change resets ``last_pc``.
        """
        interp = self.interp
        codes = interp._codes
        bound = interp._bound
        frames = thread.frames
        max_steps = self.max_steps
        spin_limit = self.SPIN_LIMIT
        steps = 0
        while not thread.finished:
            frame = frames[-1]
            ops = frame.ops
            if ops is None:
                func = frame.function
                ops = codes.get(id(func))
                if ops is None:
                    ops = bound.bind_function(func)
                frame.ops = ops
            spin = 0
            last_index = -1
            # Stay in this frame until a call/ret swaps the top of stack.
            while True:
                index = frame.index
                if index == last_index:
                    spin += 1
                    if spin > spin_limit:
                        raise ExecutionLimitExceeded(
                            f"thread {thread.thread_id} spinning at "
                            f"{thread.current_function} (deadlocked schedule)"
                        )
                else:
                    spin = 0
                    last_index = index
                if thread.fuel <= 0:
                    raise ExecutionLimitExceeded(
                        f"thread {thread.thread_id} exceeded fuel in {thread.current_function}"
                    )
                thread.fuel -= 1
                thread.steps += 1
                try:
                    advance = ops[index](thread, frame)
                except HelperRetry:
                    advance = None  # same pc next step; the insn did not retire
                steps += 1
                if steps > max_steps:
                    raise ExecutionLimitExceeded(
                        f"thread {thread.thread_id} exceeded scheduler budget"
                    )
                if advance is None:
                    continue
                if thread.finished:
                    return StopReason.FINISHED
                if frames[-1] is not frame:
                    break
                if advance:
                    frame.index = index + 1
        return StopReason.FINISHED

    def _note_breakpoint(self, thread: ThreadCtx, breakpoint: Breakpoint) -> None:
        trace = self.interp.machine.trace
        if trace.active:
            trace.emit(
                BreakpointHit(
                    thread.thread_id,
                    breakpoint.inst_addr,
                    breakpoint.policy.value,
                    breakpoint._count,
                )
            )

    def run_to_completion(self, thread: ThreadCtx) -> StopReason:
        return self.run_until(thread, None)

    def run_round_robin(self, threads: Sequence[ThreadCtx], quantum: int = 1) -> None:
        """Fair interleaving at ``quantum`` instructions per turn.

        Used by the in-order baseline fuzzer, which explores thread
        interleavings but (running the plain kernel) never reorders
        memory accesses.
        """
        pending: List[ThreadCtx] = [t for t in threads if not t.finished]
        steps = 0
        step = self.interp.step
        while pending:
            for thread in list(pending):
                for _ in range(quantum):
                    if not step(thread):
                        break
                    steps += 1
                    if steps > self.max_steps:
                        raise ExecutionLimitExceeded("round-robin budget exceeded")
                if thread.finished:
                    pending.remove(thread)

    def run_random(self, threads: Sequence[ThreadCtx], rng, switch_prob: float = 0.1) -> None:
        """Randomized interleaving (stress-style baseline)."""
        pending: List[ThreadCtx] = [t for t in threads if not t.finished]
        current = 0
        steps = 0
        step = self.interp.step
        while pending:
            current %= len(pending)
            thread = pending[current]
            if not step(thread):
                pending.remove(thread)
                continue
            steps += 1
            if steps > self.max_steps:
                raise ExecutionLimitExceeded("random-schedule budget exceeded")
            if rng.random() < switch_prob:
                current += 1
