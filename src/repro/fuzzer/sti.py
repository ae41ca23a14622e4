"""Single-threaded inputs (STIs) and their profiled execution (§4.2).

An STI is a sequence of syscalls with concrete arguments, where an
argument may be a :class:`ResourceRef` — "the return value of call k" —
preserving resource dependencies (open → fd → write) the way Syzlang
templates do.

``profile_sti`` runs the STI on a fresh kernel, recording for every
syscall its memory-access/barrier profile (the five- and three-tuples of
§4.2), return value and coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError, ExecutionLimitExceeded, KernelCrash
from repro.fuzzer.kcov import KCov
from repro.kernel.kernel import Kernel, KernelImage
from repro.oemu.profiler import Profiler, SyscallProfile
from repro.oracles.report import CrashReport


@dataclass(frozen=True)
class ResourceRef:
    """Placeholder for "the return value of the call at ``index``"."""

    index: int

    def __repr__(self) -> str:
        return f"ret{self.index}"


ArgValue = Union[int, ResourceRef]


@dataclass(frozen=True)
class Call:
    """One syscall invocation in an STI."""

    name: str
    args: Tuple[ArgValue, ...] = ()

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


@dataclass(frozen=True)
class STI:
    """A single-threaded input: a sequence of calls."""

    calls: Tuple[Call, ...]

    def __len__(self) -> int:
        return len(self.calls)

    def __repr__(self) -> str:
        return " ; ".join(map(repr, self.calls))

    def with_call(self, call: Call) -> "STI":
        return STI(self.calls + (call,))


def resolve_args(call: Call, retvals: Sequence[int]) -> Tuple[int, ...]:
    """Substitute resource references with earlier return values."""
    out: List[int] = []
    for arg in call.args:
        if isinstance(arg, ResourceRef):
            out.append(retvals[arg.index] if 0 <= arg.index < len(retvals) else 0)
        else:
            out.append(arg)
    return tuple(out)


@dataclass
class STIResult:
    """Outcome of one profiled single-threaded run."""

    sti: STI
    profiles: List[SyscallProfile] = field(default_factory=list)
    retvals: List[int] = field(default_factory=list)
    crash: Optional[CrashReport] = None
    coverage: frozenset = frozenset()

    @property
    def ok(self) -> bool:
        return self.crash is None


def profile_sti(
    image: KernelImage,
    sti: STI,
    *,
    with_coverage: bool = True,
    kernel: Optional[Kernel] = None,
    after_call: Optional[Callable[[Kernel, List[int]], None]] = None,
) -> STIResult:
    """Run an STI sequentially, profiling each call.

    Single-threaded execution is in-order (no reordering controls are
    installed), so a crash here is a non-concurrency bug, which the
    fuzzer records as OZZ's first stage does with KASAN/lockdep.  The
    seeded kernel has one: after a second ``tls_init`` the socket's
    saved proto is the TLS table itself, so ``setsockopt`` recurses in
    ``tls_setsockopt`` until it hits the stack guard page.

    ``kernel`` may supply a pooled, snapshot-reset kernel (must be in
    boot state with a profiler already attached); otherwise a fresh one
    is booted.  ``Profiler.events_for`` *detaches* each per-thread event
    list, so the returned profiles own their events outright — reusing
    the kernel (and profiler) for later runs can never mutate a profile
    the corpus already cached.

    ``after_call`` is invoked after each *successful* call with the
    executing kernel and the retvals so far — the hook the fuzzer's
    prefix cache uses to snapshot every prefix depth during this run
    instead of re-executing the prefix later
    (:meth:`~repro.fuzzer.prefix.PrefixCache.prime`).
    """
    if kernel is None:
        profiler = Profiler()
        kernel = Kernel(image, profiler=profiler)
    else:
        profiler = kernel.profiler
        if profiler is None:
            raise ConfigError("pooled STI kernel needs a profiler attached")
        profiler.clear()
    kcov = KCov() if with_coverage else None
    kernel.kcov = kcov
    result = STIResult(sti=sti)
    all_cov: set = set()
    for call in sti.calls:
        args = resolve_args(call, result.retvals)
        try:
            thread = kernel.spawn_syscall(call.name, args)
            retval = kernel.interp.run(thread)
            kernel.finish_syscall(thread, call.name)
        except KernelCrash as crash:
            result.crash = crash.report
            break
        except ExecutionLimitExceeded:
            result.crash = CrashReport(
                title=f"HANG: {call.name} exceeded its fuel budget",
                oracle="hang",
                function=call.name,
            )
            break
        cov = kcov.coverage_of(thread.thread_id) if kcov else frozenset()
        all_cov.update(cov)
        result.retvals.append(retval)
        result.profiles.append(
            SyscallProfile(
                syscall=call.name,
                events=profiler.events_for(thread.thread_id),
                retval=retval,
                coverage=cov,
            )
        )
        if after_call is not None:
            after_call(kernel, result.retvals)
    result.coverage = frozenset(all_cov)
    return result
