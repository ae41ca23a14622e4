"""A bare simulated machine: program + memory + OEMU + oracles.

:class:`Machine` bundles everything the interpreter needs.  It is used
directly by the litmus-test runner and unit tests; the full simulated
kernel (:class:`repro.kernel.kernel.Kernel`) builds on top of it, adding
syscalls, an allocator-backed heap API, globals and helpers.

:class:`ExecutionMachine` is the structural protocol the execution stack
(interpreter, scheduler, Figure 5 executor) programs against — it
replaces the old ``getattr(machine, ...)`` duck-typing with a typed
seam, and every machine carries an ExecTrace sink (``trace``) through
which the stack emits :mod:`repro.trace` events.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol, runtime_checkable

from repro.clock import LogicalClock
from repro.kir.function import Program
from repro.kir.interp import Interpreter, ThreadCtx
from repro.mem.allocator import SlabAllocator
from repro.mem.memory import Memory
from repro.mem.shadow import ShadowMemory
from repro.mem.store_history import StoreHistory
from repro.oemu.core import Oemu
from repro.oemu.profiler import EngineCounters, Profiler
from repro.oracles.assertions import Assertions
from repro.oracles.fault import FaultOracle
from repro.oracles.kasan import Kasan
from repro.oracles.lockdep import Lockdep
from repro.trace.events import SyscallExit
from repro.trace.sink import NULL_SINK, TraceSink


@runtime_checkable
class ExecutionMachine(Protocol):
    """What the execution stack requires of a machine.

    Satisfied structurally by :class:`Machine` and
    :class:`repro.kernel.kernel.Kernel`; the interpreter, scheduler and
    :class:`~repro.sched.executor.BarrierTestExecutor` access these
    members directly instead of probing with ``getattr``.
    """

    program: Program
    memory: Memory
    oemu: Optional[Oemu]
    trace: TraceSink
    interp: Interpreter
    helpers: Dict[str, Callable]

    def finish_syscall(self, thread: ThreadCtx, name: str = "") -> None: ...


class Machine:
    """One simulated computer: shared memory, CPUs, OEMU, oracles."""

    def __init__(
        self,
        program: Program,
        *,
        ncpus: int = 2,
        with_oemu: bool = True,
        profiler: Optional[Profiler] = None,
        kasan_enabled: bool = True,
        trace: TraceSink = NULL_SINK,
    ) -> None:
        self.program = program
        self.ncpus = ncpus
        self.clock = LogicalClock()
        self.memory = Memory(ncpus=ncpus)
        self.shadow = ShadowMemory()
        self.allocator = SlabAllocator(self.memory, self.shadow)
        self.history = StoreHistory()
        self.profiler = profiler
        self._trace: TraceSink = trace
        self.oemu: Optional[Oemu] = (
            Oemu(self.memory, self.clock, self.history, profiler, trace=trace)
            if with_oemu
            else None
        )
        self.kasan = Kasan(self.shadow, self.allocator, enabled=kasan_enabled)
        self.fault_oracle = FaultOracle()
        self.lockdep = Lockdep()
        self.assertions = Assertions()
        self._kcov = None  # optional repro.fuzzer.kcov.KCov
        self.helpers: Dict[str, Callable] = {}
        #: Per-machine engine telemetry; multiprocess campaign workers
        #: report these (the module-global ENGINE_COUNTERS would silently
        #: drop increments made in worker processes).
        self.engine_counters = EngineCounters()
        self.interp = Interpreter(self)
        self._next_thread = 0

    # The interpreter hoists ``trace`` and ``kcov`` into its step loop,
    # so post-construction swaps (TraceRecorder attach, KCov attach) go
    # through properties that tell it to re-bind.  The OEMU holds its
    # own sink and is not touched here: a caller recording a whole test
    # (``run_mti`` on a pooled kernel) sets both, and ``Kernel.reset``
    # restores both.

    @property
    def trace(self) -> TraceSink:
        return self._trace

    @trace.setter
    def trace(self, sink: TraceSink) -> None:
        self._trace = sink
        interp = getattr(self, "interp", None)
        if interp is not None:
            interp.rebind()

    @property
    def kcov(self):
        return self._kcov

    @kcov.setter
    def kcov(self, collector) -> None:
        self._kcov = collector
        interp = getattr(self, "interp", None)
        if interp is not None:
            interp.rebind()

    def register_helper(self, name: str, fn: Callable) -> None:
        """Register ``fn(machine, thread, *args) -> int|None`` as a helper."""
        self.helpers[name] = fn

    def new_thread_id(self) -> int:
        self._next_thread += 1
        return self._next_thread

    def spawn(self, func_name: str, args=(), *, cpu: int = 0) -> ThreadCtx:
        return self.interp.spawn(func_name, tuple(args), thread_id=self.new_thread_id(), cpu=cpu)

    def run(self, func_name: str, args=(), *, cpu: int = 0) -> int:
        """Run a function to completion on one thread; returns its value."""
        thread = self.spawn(func_name, args, cpu=cpu)
        return self.interp.run(thread)

    def finish_syscall(self, thread: ThreadCtx, name: str = "") -> None:
        """Return-to-userspace path: implicit full ordering + exit oracles.

        The kernel subclass extends this with its return-value oracle;
        the base version is what bare-machine tests and the litmus
        runner get.
        """
        name = name or thread.syscall_name
        if self.trace.active:
            self.trace.emit(SyscallExit(thread.thread_id, name))
        if self.oemu is not None:
            self.oemu.on_syscall_exit(thread.thread_id)
        self.lockdep.on_syscall_exit(thread.thread_id, name or thread.current_function)
