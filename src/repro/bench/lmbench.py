"""LMBench-style microbenchmark over the simulated kernel (Table 5).

Runs the same operation mix as the paper's LMBench rows — null syscall,
stat, open/close, file create/delete, context switch, pipe, unix socket,
fork, mmap — against two kernel builds compiled from the same source:
plain and OEMU-instrumented.  The reported quantity is the per-operation
latency and the instrumented/plain overhead ratio; the paper's shape is
"every row ≫ 1×, heavyweight memory paths worst".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import KernelConfig
from repro.kernel.kernel import Kernel, kernel_image


@dataclass(frozen=True)
class Workload:
    """One LMBench row: a named sequence of syscalls per operation."""

    name: str
    setup: Tuple[Tuple[str, Tuple[int, ...]], ...]
    op: Tuple[Tuple[str, Tuple[int, ...]], ...]


#: The Table 5 operation mix.
WORKLOADS: Tuple[Workload, ...] = (
    Workload("null", (), (("null", ()),)),
    Workload("stat", (("creat", (1,)),), (("stat", (1,)),)),
    Workload(
        "open/close",
        (("creat", (2,)),),
        # -1 threads the previous op's return value (the fresh fd).
        (("fs_open", (2,)), ("fs_close", (-1,))),
    ),
    Workload("File create", (), (("creat", (3,)),)),
    Workload("File delete", (("creat", (4,)),), (("unlink", (4,)), ("creat", (4,)))),
    Workload("ctxsw 2p/0k", (), (("ctxsw", ()),)),
    Workload("pipe", (), (("pipe_lat", (7,)),)),
    Workload("unix", (), (("unix_lat", (7,)),)),
    Workload("fork", (), (("fork", ()),)),
    Workload("mmap", (), (("mmap", (16,)),)),
)


@dataclass
class LmbenchRow:
    name: str
    plain_us: float
    oemu_us: float

    @property
    def overhead(self) -> float:
        return self.oemu_us / self.plain_us if self.plain_us else float("inf")


def _run_ops(kernel: Kernel, ops) -> None:
    prev = 0
    for name, args in ops:
        argv = tuple(prev if a == -1 else a for a in args)
        prev = kernel.run_syscall(name, argv)


def _time_workload(kernel: Kernel, workload: Workload, reps: int, trials: int = 3) -> float:
    """Best-of-``trials`` mean seconds per operation (min damps jitter)."""
    for name, args in workload.setup:
        kernel.run_syscall(name, args)
    _run_ops(kernel, workload.op)  # warm-up (allocator/page effects)
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(reps):
            _run_ops(kernel, workload.op)
        best = min(best, (time.perf_counter() - start) / reps)
    return best


def run_lmbench(
    reps: int = 30,
    workloads: Sequence[Workload] = WORKLOADS,
    *,
    instrument_only: Optional[Tuple[str, ...]] = None,
) -> List[LmbenchRow]:
    """Measure every workload on plain and instrumented kernels.

    ``instrument_only`` restricts the OEMU pass to selected subsystems —
    the §6.3.1 selective-instrumentation mitigation — and shows its
    effect on the overhead column.
    """
    from repro.oemu.profiler import Profiler

    plain_image = kernel_image(KernelConfig(instrumented=False))
    oemu_image = kernel_image(KernelConfig(instrumented=True, instrument_only=instrument_only))
    rows: List[LmbenchRow] = []
    for workload in workloads:
        plain = _time_workload(Kernel(plain_image), workload, reps)
        # The instrumented kernel runs as OZZ runs it: callbacks record
        # every access/barrier into the shared profiling region (§4.2).
        oemu = _time_workload(Kernel(oemu_image, profiler=Profiler()), workload, reps)
        rows.append(LmbenchRow(workload.name, plain * 1e6, oemu * 1e6))
    return rows
