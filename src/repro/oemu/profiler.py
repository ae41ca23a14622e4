"""Memory access & barrier profiler (paper §4.2).

While a single-threaded input runs, OZZ records every instrumented
memory access as a five-tuple — instruction address, accessed memory
location, size, type (store/load), timestamp — and every memory barrier
as a three-tuple — instruction address, barrier type, timestamp.  In the
real system this lands in a per-thread mmap-shared region; here it is a
per-thread event list the hint calculator consumes.

Implicit barriers matter: ``smp_store_release`` behaves like a ``wmb``
then a store, ``smp_load_acquire`` / ``READ_ONCE`` like a load then an
``rmb``, and full-ordered atomics like both.  The profiler records these
as barrier events (flagged ``implicit``) so Algorithm 1's grouping sees
the same ordering boundaries OEMU enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.kir.insn import Annot, BarrierKind


@dataclass(frozen=True)
class AccessEvent:
    """One profiled memory access (the paper's five-tuple, plus context)."""

    inst_addr: int
    mem_addr: int
    size: int
    is_write: bool
    ts: int
    annot: Annot = Annot.PLAIN
    function: str = ""
    atomic: bool = False

    @property
    def kind(self) -> str:
        return "store" if self.is_write else "load"

    def overlaps(self, other: "AccessEvent") -> bool:
        return (
            self.mem_addr < other.mem_addr + other.size
            and other.mem_addr < self.mem_addr + self.size
        )


@dataclass(frozen=True)
class BarrierEvent:
    """One profiled barrier (the paper's three-tuple)."""

    inst_addr: int
    kind: BarrierKind
    ts: int
    implicit: bool = False
    function: str = ""


ProfileEvent = object  # AccessEvent | BarrierEvent


@dataclass
class SyscallProfile:
    """Everything one syscall execution did, in program order."""

    syscall: str
    events: List[object] = field(default_factory=list)
    retval: int = 0
    coverage: frozenset = frozenset()

    @property
    def accesses(self) -> List[AccessEvent]:
        return [e for e in self.events if isinstance(e, AccessEvent)]

    @property
    def barriers(self) -> List[BarrierEvent]:
        return [e for e in self.events if isinstance(e, BarrierEvent)]

    def stores(self) -> List[AccessEvent]:
        return [a for a in self.accesses if a.is_write]

    def loads(self) -> List[AccessEvent]:
        return [a for a in self.accesses if not a.is_write]


class Profiler:
    """Per-thread event recorder attached to OEMU during STI profiling."""

    def __init__(self) -> None:
        self._events: Dict[int, List[object]] = {}
        self.enabled = True

    def start_thread(self, thread: int) -> None:
        self._events[thread] = []

    def events_for(self, thread: int) -> List[object]:
        """Hand off the thread's event list — ownership transfers.

        The list is *detached* from the profiler (popped), so a later
        ``clear()``-and-reuse of the same profiler — or the same thread
        id recurring after a kernel reset — can never mutate a profile
        that was already captured.  Calling twice for the same thread
        returns an empty list the second time.
        """
        return self._events.pop(thread, [])

    def on_access(
        self,
        thread: int,
        inst_addr: int,
        mem_addr: int,
        size: int,
        is_write: bool,
        ts: int,
        annot: Annot,
        function: str,
        atomic: bool = False,
    ) -> None:
        if not self.enabled:
            return
        self._events.setdefault(thread, []).append(
            AccessEvent(inst_addr, mem_addr, size, is_write, ts, annot, function, atomic)
        )

    def on_barrier(
        self,
        thread: int,
        inst_addr: int,
        kind: BarrierKind,
        ts: int,
        implicit: bool,
        function: str,
    ) -> None:
        if not self.enabled:
            return
        self._events.setdefault(thread, []).append(
            BarrierEvent(inst_addr, kind, ts, implicit, function)
        )

    def clear(self) -> None:
        self._events.clear()


@dataclass
class EngineCounters:
    """Process-wide execution-engine telemetry.

    Counts what the PR-4 engine optimizations actually did: kernel boots
    vs snapshot resets (how much boot work reuse saved), pages restored
    by dirty-tracking restores, functions bound to decoded closures, and
    decode-cache hits (programs whose decode pass was shared).  Purely
    observational — never consulted by execution — and reported by the
    dispatch benchmark alongside its timing numbers.
    """

    boots: int = 0
    resets: int = 0
    dirty_pages_restored: int = 0
    functions_bound: int = 0
    decode_cache_hits: int = 0
    prefix_snapshots: int = 0
    prefix_hits: int = 0
    calls_skipped: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "boots": self.boots,
            "resets": self.resets,
            "dirty_pages_restored": self.dirty_pages_restored,
            "functions_bound": self.functions_bound,
            "decode_cache_hits": self.decode_cache_hits,
            "prefix_snapshots": self.prefix_snapshots,
            "prefix_hits": self.prefix_hits,
            "calls_skipped": self.calls_skipped,
        }

    def diff(self, baseline: Dict[str, int]) -> Dict[str, int]:
        """Counter deltas since ``baseline`` (an earlier ``snapshot()``).

        How campaign shards report per-batch engine activity without the
        module singleton leaking across batches: snapshot before, diff
        after, ship the delta.
        """
        now = self.snapshot()
        return {k: now[k] - baseline.get(k, 0) for k in now}

    def merge(self, other: Dict[str, int]) -> None:
        """Accumulate a delta dict (e.g. a shard's) into this counter set."""
        for key, value in other.items():
            if hasattr(self, key):
                setattr(self, key, getattr(self, key) + value)

    def reset(self) -> None:
        self.boots = 0
        self.resets = 0
        self.dirty_pages_restored = 0
        self.functions_bound = 0
        self.decode_cache_hits = 0
        self.prefix_snapshots = 0
        self.prefix_hits = 0
        self.calls_skipped = 0


#: Module singleton, kept for in-process tooling (benchmarks, tests).
#: Multiprocess campaign workers additionally keep per-machine counters
#: (``Machine.engine_counters``) and ship per-batch deltas through
#: ``ShardResult.engine_counters`` so nothing is lost across process
#: boundaries.
ENGINE_COUNTERS = EngineCounters()
