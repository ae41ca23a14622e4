"""Per-STI prefix cache — the snapshot tree over the MTI fan-out.

Every MTI the fuzzer derives from one STI re-executes the same
sequential prefix ``calls[0..i)`` before the concurrent pair, and one
``fuzz_one`` iteration runs up to ``max_pairs_per_sti ×
max_hints_per_pair`` MTIs — identical deterministic work repeated ~24×.
Snapshot-based state reuse is the standard throughput lever in kernel
fuzzing; PR 4's dirty-tracked boot snapshot provides the substrate.

:class:`PrefixCache` turns the boot snapshot into a per-STI snapshot
*tree*: boot is the root, and each cached prefix length a node holding a
:class:`~repro.kernel.snapshot.PrefixSnapshot` (dirty pages + wholesale
component copies relative to boot) and the prefix calls' return values.
``position(i)`` hands back a pooled kernel already sitting at prefix
``i``:

* exact hit — one composed restore (boot + delta), zero syscalls;
* partial hit — restore to the deepest cached ``k < i``, execute only
  calls ``k..i-1``, snapshotting each missing level on the way;
* cold — execute from boot, caching levels on the way up.

The fuzzer never pays even the one cold execution: ``profile_sti``
already runs the whole STI sequentially before any MTI, so the fuzzer
hooks its per-call boundary and :meth:`PrefixCache.prime` captures the
tree *during profiling* — work the pipeline does anyway.  Every
``position`` in the fan-out is then an exact hit.  The ``wanted`` depth
set keeps priming from snapshotting levels the pair selection can never
request (the fan-out only positions at a pair's first index, which is
bounded by ``min(n - 2, max_pairs_per_sti - 1)``).

Restore-positioning is byte-identical to fresh execution (the
differential suite proves it on the decoded engine and on the test
suite's reference oracle), so cached and uncached campaigns produce
equal results.

A crash or hang inside the prefix "cannot happen" — ``profile_sti``
already ran the whole STI cleanly and execution is deterministic — but
the cache stays defensive: a failing prefix call poisons that depth and
``position`` returns ``None``, sending the fuzzer down the fresh
``run_mti`` path which reproduces the failure with identical reporting.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExecutionLimitExceeded, KernelCrash
from repro.fuzzer.sti import STI, resolve_args
from repro.kernel.kernel import Kernel, KernelPool
from repro.oemu.profiler import ENGINE_COUNTERS


class PrefixCache:
    """Lazily cached ``prefix_len → (snapshot, retvals)`` for one STI."""

    def __init__(
        self,
        pool: KernelPool,
        sti: STI,
        wanted: Optional[Iterable[int]] = None,
    ) -> None:
        self.pool = pool
        self.sti = sti
        # Depths worth snapshotting.  None means "all" (capture every
        # level reached); the fuzzer passes the set of prefix lengths the
        # pair fan-out can actually request.
        self._wanted = None if wanted is None else frozenset(wanted)
        self._snaps: Dict[int, object] = {}  # prefix_len -> PrefixSnapshot
        self._retvals: List[int] = []        # retvals of executed calls
        self._failed_at: Optional[int] = None

    @property
    def depth(self) -> int:
        """Deepest cached prefix length."""
        return max(self._snaps, default=0)

    def prime(self, kernel: Kernel, retvals: Sequence[int]) -> None:
        """Capture a tree level for free during the STI's profiling pass.

        ``profile_sti`` calls this after each successful call with the
        executing kernel and the retvals so far; ``len(retvals)`` is the
        prefix depth just reached.  Snapshotting here costs only the
        capture — the execution was going to happen anyway — so once the
        profile completes every ``position`` the fan-out issues is an
        exact hit and no prefix call is ever re-executed.
        """
        depth = len(retvals)
        if depth > len(self._retvals):
            self._retvals = list(retvals)
        if self._wants(depth) and depth not in self._snaps:
            self._snaps[depth] = kernel.capture_prefix()

    def _wants(self, depth: int) -> bool:
        return self._wanted is None or depth in self._wanted

    def position(self, prefix_len: int) -> Optional[Tuple[Kernel, List[int]]]:
        """A pooled kernel positioned after ``calls[0..prefix_len)``.

        Returns ``(kernel, retvals_of_prefix)``, or ``None`` when a
        prefix call previously crashed/hung at a shallower depth — the
        caller must then fall back to a fresh sequential run (which
        reproduces the failure with full reporting).
        """
        if self._failed_at is not None and prefix_len > self._failed_at:
            return None
        if prefix_len == 0:
            # Boot state — the plain pool path; not a cache hit.
            return self.pool.acquire(), []
        snap = self._snaps.get(prefix_len)
        if snap is not None:
            kernel = self.pool.acquire(at=snap)
            self._count_hit(kernel, prefix_len)
            return kernel, self._retvals[:prefix_len]
        # Partial/cold: start from the deepest cached ancestor and
        # execute the missing calls, snapshotting the levels worth
        # keeping on the way.  Retvals may already be known past the
        # deepest snapshot (priming records them for every depth);
        # execution is deterministic, so re-running a known call yields
        # the recorded value and only *new* retvals are appended.
        start = max((k for k in self._snaps if k < prefix_len), default=0)
        if start:
            kernel = self.pool.acquire(at=self._snaps[start])
            self._count_hit(kernel, start)
        else:
            kernel = self.pool.acquire()
        for index in range(start, prefix_len):
            call = self.sti.calls[index]
            try:
                retval = kernel.run_syscall(
                    call.name, resolve_args(call, self._retvals)
                )
            except (KernelCrash, ExecutionLimitExceeded):
                # Deterministic, so every deeper prefix fails too;
                # leave the kernel to the pool's next reset.
                self._failed_at = index
                return None
            if index == len(self._retvals):
                self._retvals.append(retval)
            depth = index + 1
            if (depth == prefix_len or self._wants(depth)) and depth not in self._snaps:
                self._snaps[depth] = kernel.capture_prefix()
        return kernel, self._retvals[:prefix_len]

    def _count_hit(self, kernel: Kernel, skipped: int) -> None:
        ENGINE_COUNTERS.prefix_hits += 1
        ENGINE_COUNTERS.calls_skipped += skipped
        kernel.engine_counters.prefix_hits += 1
        kernel.engine_counters.calls_skipped += skipped
