"""Multi-threaded inputs (MTIs) and their execution (paper §4.4).

An MTI is an STI annotated with a pair of syscalls to run concurrently
and one scheduling hint.  Running an MTI:

1. takes a kernel in boot state: a pooled kernel reset to its boot
   snapshot, or a fresh boot (every test sees pristine state — the real
   OZZ reverts its VMs to a snapshot and restarts crashed ones),
2. runs the calls before the pair sequentially,
3. runs the pair under the :class:`~repro.sched.BarrierTestExecutor`
   with the hint's reordering controls and scheduling point, the victim
   pinned to CPU 0 and the observer to CPU 1,
4. runs the remaining calls sequentially,
5. reports any oracle crash, annotated with the hypothetical barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import ExecutionLimitExceeded, KernelCrash
from repro.fuzzer.hints import LD, SchedulingHint
from repro.fuzzer.sti import STI, Call, resolve_args
from repro.kernel.kernel import Kernel, KernelImage
from repro.oracles.report import CrashReport
from repro.sched.executor import BarrierTestExecutor, ExecOutcome
from repro.trace.events import OracleFired
from repro.trace.sink import NULL_SINK, TraceSink


@dataclass(frozen=True)
class MTI:
    """One multi-threaded test case."""

    sti: STI
    pair: Tuple[int, int]          # indices into sti.calls; first < second
    hint: SchedulingHint

    def __repr__(self) -> str:
        i, j = self.pair
        return f"<MTI {self.sti.calls[i].name} || {self.sti.calls[j].name} {self.hint!r}>"


@dataclass
class MTIResult:
    """Outcome of one MTI run."""

    mti: MTI
    crash: Optional[CrashReport] = None
    hung: bool = False
    phase: str = ""
    steps: int = 0

    @property
    def crashed(self) -> bool:
        return self.crash is not None


def run_mti(
    image: KernelImage,
    mti: MTI,
    *,
    trace: TraceSink = NULL_SINK,
    kernel: Optional[Kernel] = None,
    prefix_len: int = 0,
    prefix_retvals: Optional[Sequence[int]] = None,
) -> MTIResult:
    """Execute one MTI on a pristine kernel.

    ``trace`` attaches an ExecTrace sink (e.g. a
    :class:`~repro.trace.recorder.TraceRecorder`) to the kernel; the
    default no-op sink records nothing.

    ``kernel`` may supply a pooled, snapshot-reset kernel in boot state
    so the fuzzer loop skips the per-test boot; without one, a fresh
    kernel is booted.  A recording may run on the pooled kernel: the
    sink is installed on the machine and its OEMU, and the next
    :meth:`~repro.kernel.kernel.Kernel.reset` restores the boot sink on
    both.  Booting emits no trace events and a reset kernel equals a
    fresh boot, so the recording is the one a fresh boot would make —
    :func:`~repro.trace.replayer.replay_artifact` re-checks it on one.

    ``prefix_len``/``prefix_retvals`` are the prefix-cache fast path:
    ``kernel`` is already positioned after executing ``calls[0..
    prefix_len)`` sequentially (via a restored prefix snapshot) and
    ``prefix_retvals`` carries those calls' return values, so Phase 1
    starts at ``prefix_len`` instead of 0.  Because positioning by
    snapshot restore is byte-identical to fresh execution, the outcome
    matches a full run exactly.  Ignored on fresh boots; a recording
    covers the whole test, so it must not pass a prefix.
    """
    result = MTIResult(mti=mti)
    if kernel is None:
        kernel = Kernel(image, trace=trace)
        prefix_len = 0
        prefix_retvals = None
    elif trace.active:
        kernel.trace = kernel.oemu.trace = trace
    i, j = mti.pair
    if not 0 <= prefix_len <= i:
        raise ValueError(f"prefix_len {prefix_len} outside [0, {i}]")
    # Indexed by call position so ResourceRefs resolve correctly even
    # when calls between the pair run after it.
    retvals: List[int] = [0] * len(mti.sti.calls)
    if prefix_retvals:
        retvals[: len(prefix_retvals)] = prefix_retvals

    def run_sequential(index: int) -> bool:
        call = mti.sti.calls[index]
        try:
            retvals[index] = kernel.run_syscall(call.name, resolve_args(call, retvals))
        except KernelCrash as crash:
            # A crash outside the reordered pair is still a finding, but
            # without OOO context.
            result.crash = crash.report
            result.phase = f"sequential[{index}]"
            if trace.active:
                result.crash.event_index = trace.index
                trace.emit(
                    OracleFired(
                        crash.report.title, crash.report.oracle, crash.report.inst_addr
                    )
                )
            return False
        except ExecutionLimitExceeded:
            result.hung = True
            result.phase = f"sequential[{index}]"
            return False
        return True

    # Phase 1: prefix (already executed up to prefix_len on the cache path).
    for index in range(prefix_len, i):
        if not run_sequential(index):
            return result

    # Phase 2: the concurrent pair under the hint.
    call_i, call_j = mti.sti.calls[i], mti.sti.calls[j]
    args_i = resolve_args(call_i, retvals)
    args_j = resolve_args(call_j, retvals)
    if mti.hint.reorder_side == 0:
        victim_call, victim_args = call_i, args_i
        observer_call, observer_args = call_j, args_j
    else:
        victim_call, victim_args = call_j, args_j
        observer_call, observer_args = call_i, args_i

    executor = BarrierTestExecutor(kernel)
    victim = kernel.spawn_syscall(victim_call.name, victim_args, cpu=0)
    observer = kernel.spawn_syscall(observer_call.name, observer_args, cpu=1)
    if mti.hint.barrier_type == LD:
        outcome = executor.run_load_test(
            victim, observer, mti.hint.sched_addr, mti.hint.reorder, mti.hint.sched_hit
        )
    else:
        outcome = executor.run_store_test(
            victim, observer, mti.hint.sched_addr, mti.hint.reorder, mti.hint.sched_hit
        )
    result.steps += outcome.steps
    if outcome.crashed or outcome.hung:
        result.crash = outcome.crash
        result.hung = outcome.hung
        result.phase = f"pair:{outcome.phase}"
        return result
    if mti.hint.reorder_side == 0:
        retvals[i], retvals[j] = outcome.victim_ret, outcome.observer_ret
    else:
        retvals[i], retvals[j] = outcome.observer_ret, outcome.victim_ret

    # Phase 3: the rest, sequentially (skipping the pair).
    for index in range(i + 1, len(mti.sti.calls)):
        if index == j:
            continue
        if not run_sequential(index):
            return result
    return result


def mtis_for_pair(
    sti: STI, pair: Tuple[int, int], hints: List[SchedulingHint], limit: Optional[int] = None
) -> List[MTI]:
    """Materialize MTIs for a pair, respecting the hint ordering."""
    selected = hints if limit is None else hints[:limit]
    return [MTI(sti=sti, pair=pair, hint=h) for h in selected]
