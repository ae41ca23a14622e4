"""OZZ — the fuzzing campaign loop (paper Figure 6).

Each iteration:

1. **STI phase** (§4.2): pick a seed / corpus entry / fresh input,
   run it single-threaded with profiling; keep it if it adds coverage.
2. **Hint phase** (§4.3): for syscall pairs of the STI, compute
   scheduling hints (Algorithms 1+2), sorted by the max-reorder
   heuristic.
3. **MTI phase** (§4.4): translate to MTIs and run them under the
   hypothetical-barrier executor, feeding crashes to triage.

Everything is deterministic given the RNG seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.fuzzer.corpus import Corpus
from repro.fuzzer.generator import InputGenerator
from repro.fuzzer.hints import SchedulingHint, calculate_hints, prioritize_hints
from repro.fuzzer.intervals import span_overlap_stats, weighted_spans
from repro.fuzzer.minimize import minimize
from repro.fuzzer.mti import MTI, MTIResult, run_mti
from repro.fuzzer.prefix import PrefixCache
from repro.fuzzer.reproducer import Reproducer
from repro.fuzzer.sti import STI, profile_sti
from repro.fuzzer.templates import seed_inputs, templates
from repro.fuzzer.triage import CrashDB
from repro.kernel.kernel import KernelImage, KernelPool
from repro.oemu.profiler import Profiler


@dataclass
class FuzzStats:
    """Campaign counters."""

    stis_run: int = 0
    mtis_run: int = 0
    hints_computed: int = 0
    crashes: int = 0
    hangs: int = 0
    corpus_size: int = 0
    coverage: int = 0

    @property
    def tests_run(self) -> int:
        """Total executed tests (the §6.3.2 throughput unit)."""
        return self.stis_run + self.mtis_run

    def merge(self, other: "FuzzStats") -> "FuzzStats":
        """Field-wise sum of two shards' counters (pure and associative).

        ``coverage`` and ``corpus_size`` are set-cardinalities, so their
        sums are only upper bounds; the campaign-level merge in
        :mod:`repro.fuzzer.parallel` recomputes ``coverage`` from the
        union of the shards' address sets.
        """
        return FuzzStats(
            stis_run=self.stis_run + other.stis_run,
            mtis_run=self.mtis_run + other.mtis_run,
            hints_computed=self.hints_computed + other.hints_computed,
            crashes=self.crashes + other.crashes,
            hangs=self.hangs + other.hangs,
            corpus_size=self.corpus_size + other.corpus_size,
            coverage=self.coverage + other.coverage,
        )


class OzzFuzzer:
    """The OOO-bug fuzzer."""

    def __init__(
        self,
        image: KernelImage,
        *,
        seed: int = 0,
        use_seeds: bool = True,
        max_hints_per_pair: int = 6,
        max_pairs_per_sti: int = 4,
        mutate_prob: float = 0.6,
        shard: int = 0,
        nshards: int = 1,
        static_hints: bool = False,
        record_artifacts: bool = True,
        pool: Optional[KernelPool] = None,
    ) -> None:
        if not (0 <= shard < nshards):
            raise ConfigError(f"shard {shard} out of range for {nshards} shards")
        self.image = image
        self.rng = random.Random(seed)
        self.generator = InputGenerator(templates(), self.rng)
        self.corpus = Corpus()
        self.crashdb = CrashDB()
        self.stats = FuzzStats()
        self.max_hints_per_pair = max_hints_per_pair
        self.max_pairs_per_sti = max_pairs_per_sti
        self.mutate_prob = mutate_prob
        # Record a replayable schedule artifact (repro.trace.replayer)
        # for the first occurrence of each crash title.  Costs one extra
        # (traced) run per unique crash on the pooled kernel — rare
        # enough to be on by default.
        self.record_artifacts = record_artifacts
        # KIRA static seeding (opt-in): pre-compute the instruction
        # address pairs the barrier lint flags as reordering candidates.
        # Computed on the plain program — the instrumentation pass
        # preserves addresses, so they match dynamic hint addresses.
        # ``static_rank`` selects the ordering evidence: "lockset"
        # (default) weights each candidate pair by the interprocedural
        # race engine's score for its function; "tier" is the plain
        # exercised/masked/inert partition (the pre-lockset behaviour,
        # kept for ablation).
        self.static_hints = static_hints
        self.static_rank = "lockset"
        self._static_pairs: Dict[str, frozenset] = {}
        self._static_weights: Dict[str, Dict[Tuple[int, int], int]] = {}
        self._static_all: frozenset = frozenset()
        self._addr_weight: Dict[int, int] = {}
        if static_hints:
            from repro.analysis.barriers import (
                candidate_addr_sets,
                candidate_pairs,
                static_reordering_candidates,
            )
            from repro.analysis.races import analyze_races, candidate_weights

            candidates = static_reordering_candidates(image.plain_program)
            self._static_pairs = dict(candidate_pairs(candidates))
            self._static_all = frozenset().union(
                *candidate_addr_sets(candidates).values()
            )
            report = analyze_races(
                image.plain_program,
                owner=image.function_owner,
                roots=image.syscall_roots(),
                regions=image.global_regions(),
                candidates=candidates,
            )
            self._static_weights = candidate_weights(
                report.races(), candidates
            )
            # Per-instruction-address evidence weight, for pair ordering:
            # the heaviest candidate pair the instruction is a member of.
            for table in self._static_weights.values():
                for (x_addr, y_addr), weight in table.items():
                    for a in (x_addr, y_addr):
                        self._addr_weight[a] = max(
                            self._addr_weight.get(a, 0), weight
                        )
        # A shard takes every nshards-th seed input, so an N-shard
        # campaign collectively covers the same seed corpus as a serial
        # one even when each shard's iteration slice is small.
        self._pending_seeds: List[STI] = (
            list(seed_inputs())[shard::nshards] if use_seeds else []
        )
        # Boot-snapshot reuse: one kernel per worker, reset per test
        # instead of re-booted.  A caller that outlives this fuzzer (a
        # campaign pool worker running many batches) passes its own pool
        # so the booted kernel is amortized too; resetting to the boot
        # snapshot is equivalent to a fresh boot, so sharing cannot leak
        # state between batches.  Artifacts are recorded on this pool
        # too (boot emits no trace events); without a pool, each test and
        # each recording boots a fresh kernel.
        if pool is not None:
            if not image.config.snapshot_reset:
                raise ConfigError("a shared KernelPool requires snapshot_reset")
            self._pool: Optional[KernelPool] = pool
        else:
            self._pool = KernelPool(image) if image.config.snapshot_reset else None
        # Prefix caching rides on the pool: each iteration builds a
        # snapshot tree over its STI so the MTI fan-out skips the shared
        # sequential prefix (repro.fuzzer.prefix).  Off whenever the pool
        # is (config normalization already ties it to snapshot_reset).
        self._prefix_cache = bool(
            image.config.prefix_cache and self._pool is not None
        )
        self._sti_profiler = Profiler()

    # -- input selection -----------------------------------------------------

    def next_sti(self) -> STI:
        if self._pending_seeds:
            return self._pending_seeds.pop(0)
        base = self.corpus.pick(self.rng)
        if base is not None and self.rng.random() < self.mutate_prob:
            return self.generator.mutate(base)
        return self.generator.generate()

    # -- one full iteration ------------------------------------------------------

    def fuzz_one(self, sti: Optional[STI] = None) -> List[MTIResult]:
        """Run one STI through the full pipeline; returns MTI results."""
        if sti is None:
            sti = self.next_sti()
        pool = self._pool
        # Build the prefix cache *before* profiling and let the profile
        # run prime it: profiling executes every prefix anyway, so the
        # snapshot tree costs only the captures and the MTI fan-out
        # below never re-executes a prefix call.  The wanted depths are
        # exactly the pair first-indices ``_choose_pairs`` can emit —
        # adjacent pairs contribute every i up to the pair budget, and
        # non-adjacent extras stay within the same bound.
        cache = (
            PrefixCache(
                pool,
                sti,
                wanted=range(1, min(len(sti.calls) - 1, self.max_pairs_per_sti)),
            )
            if self._prefix_cache
            else None
        )
        profile = profile_sti(
            self.image,
            sti,
            kernel=pool.acquire(profiler=self._sti_profiler) if pool else None,
            after_call=cache.prime if cache is not None else None,
        )
        self.stats.stis_run += 1
        if profile.crash is not None:
            # A single-threaded crash: not an OOO bug, but still recorded.
            self.crashdb.add(profile.crash, self.stats.tests_run)
            self.stats.crashes += 1
            return []
        self.corpus.consider(profile)
        self.stats.corpus_size = len(self.corpus)
        self.stats.coverage = self.corpus.total_coverage

        results: List[MTIResult] = []
        for i, j in self._choose_pairs(len(sti.calls), profile):
            hints = calculate_hints(profile.profiles[i], profile.profiles[j])
            self.stats.hints_computed += len(hints)
            if self.static_hints:
                ranking = (
                    self._static_pairs
                    if self.static_rank == "tier"
                    else self._static_weights
                )
                hints = prioritize_hints(hints, ranking)
            for hint in hints[: self.max_hints_per_pair]:
                mti = MTI(sti=sti, pair=(i, j), hint=hint)
                positioned = cache.position(i) if cache is not None else None
                if positioned is not None:
                    kernel, prefix_retvals = positioned
                    result = run_mti(
                        self.image,
                        mti,
                        kernel=kernel,
                        prefix_len=i,
                        prefix_retvals=prefix_retvals,
                    )
                else:
                    # No cache, or a poisoned prefix (a prefix call
                    # crashed): the fresh path reproduces it exactly.
                    result = run_mti(
                        self.image, mti, kernel=pool.acquire() if pool else None
                    )
                self.stats.mtis_run += 1
                results.append(result)
                if result.hung:
                    self.stats.hangs += 1
                if result.crashed:
                    self.stats.crashes += 1
                    record = self.crashdb.add(result.crash, self.stats.tests_run)
                    if record.count == 1 and record.reproducer is None:
                        record.reproducer = Reproducer.from_result(
                            result, self.image.config
                        )
                        if self.record_artifacts:
                            self._record_artifact(record, result.mti)
        return results

    def _record_artifact(self, record, mti: MTI) -> None:
        """Attach a replayable schedule artifact to a fresh crash record."""
        # Lazy import: the replayer pulls in the whole execution stack,
        # and the fuzzer core should stay import-light.
        from repro.trace.replayer import record_crash_artifact

        try:
            artifact = record_crash_artifact(self.image, mti, pool=self._pool)
        except ValueError:
            # The traced re-run didn't crash — a nondeterministic trigger
            # (should not happen; execution is deterministic).  Keep the
            # reproducer, skip the artifact.
            return
        record.artifact = artifact
        # The dedup'd report now carries its schedule, per §4.4's
        # "report of memory accesses that were reordered".
        record.first_report.schedule = artifact.schedule
        if record.first_report.event_index is None:
            record.first_report.event_index = artifact.event_index

    def minimized_reproducer(self, title: str) -> Optional[Reproducer]:
        """Minimize a found crash's trigger (syzkaller-style repro).

        Returns a :class:`~repro.fuzzer.reproducer.Reproducer` whose
        input and reorder set have been shrunk to the essentials — the
        minimal evidence for the missing barrier's location.
        """
        return minimize_reproducer(self.image, self.crashdb, title)

    def _choose_pairs(self, n: int, profile=None) -> List[Tuple[int, int]]:
        """Adjacent pairs first (most likely to share state), then others.

        With static hints enabled, pairs whose profiles both touch memory
        through statically-flagged instructions — i.e. whose static
        candidate sets overlap on the same addresses — are scheduled
        first (stable sort, so the adjacent-first order breaks ties).
        Under the default ``static_rank == "lockset"``, overlap bytes
        reached through race-confirmed instructions dominate the order:
        pairs sharing an interprocedurally-corroborated location run
        before pairs whose overlap is merely statically reorderable.
        """
        adjacent = [(i, i + 1) for i in range(n - 1)]
        others = [
            (i, j) for i in range(n) for j in range(i + 2, n)
        ]
        self.rng.shuffle(others)
        pairs = adjacent + others[: max(0, self.max_pairs_per_sti - len(adjacent))]
        pairs = pairs[: self.max_pairs_per_sti]
        if self.static_hints and profile is not None:
            # Reorder (never replace) the selected pairs, so enabling
            # static hints schedules promising pairs earlier without
            # changing which pairs — and hence how many tests — run.
            hot = [self._static_mem(p) for p in profile.profiles]
            if self.static_rank == "tier":
                pairs.sort(
                    key=lambda ij: -span_overlap_stats(hot[ij[0]], hot[ij[1]])[1]
                )
            else:
                pairs.sort(key=lambda ij: self._pair_rank(hot[ij[0]], hot[ij[1]]))
        return pairs

    def _pair_rank(self, hot_a, hot_b) -> Tuple[int, int]:
        weight, shared = span_overlap_stats(hot_a, hot_b)
        return (-weight, -shared)

    def _static_mem(self, syscall_profile):
        """Memory a syscall touched via statically-flagged insns, as
        piecewise-max weighted spans — each byte's weight the heaviest
        flagging instruction's evidence weight (1 when the lockset
        ranking is off).  Span form replaces the per-byte dict
        (:meth:`_static_mem_bytes`, kept as the equivalence reference):
        ranking needs only overlap byte counts and the overlap's max
        weight, which the span sweep yields without byte expansion."""
        spans = []
        for e in syscall_profile.accesses:
            if e.inst_addr in self._static_all:
                spans.append(
                    (
                        e.mem_addr,
                        e.mem_addr + e.size,
                        self._addr_weight.get(e.inst_addr, 1),
                    )
                )
        return weighted_spans(spans)

    def _static_mem_bytes(self, syscall_profile) -> Dict[int, int]:
        """Reference byte-dict form of :meth:`_static_mem` (property tests)."""
        out: Dict[int, int] = {}
        for e in syscall_profile.accesses:
            if e.inst_addr in self._static_all:
                w = self._addr_weight.get(e.inst_addr, 1)
                for byte in range(e.mem_addr, e.mem_addr + e.size):
                    if w > out.get(byte, 0):
                        out[byte] = w
        return out

    # -- campaign drivers ------------------------------------------------------------

    def run(
        self,
        iterations: int,
        *,
        deadline: Optional[float] = None,
        progress: Optional[Callable[[int, FuzzStats], Optional[bool]]] = None,
    ) -> FuzzStats:
        """Run ``iterations`` pipeline rounds.

        ``deadline`` is an absolute ``time.monotonic()`` timestamp; when
        given, the loop stops at the first iteration boundary past it
        (how :mod:`repro.campaign_api` enforces ``time_budget``).

        ``progress`` is called *before* each iteration with
        ``(iteration_index, stats)``.  The campaign supervisor uses it as
        the shard heartbeat / mid-run checkpoint seam.  Returning
        ``False`` skips that iteration's input (poisoned-input
        quarantine); any other return value runs it normally.
        """
        for i in range(iterations):
            if deadline is not None and time.monotonic() >= deadline:
                break
            if progress is not None and progress(i, self.stats) is False:
                continue
            self.fuzz_one()
        return self.stats

    def run_until_found(
        self, bug_ids: Sequence[str], max_iterations: int = 500
    ) -> Tuple[FuzzStats, List[str]]:
        """Fuzz until all given bugs are found (or the budget runs out)."""
        target = set(bug_ids)
        for _ in range(max_iterations):
            self.fuzz_one()
            if target.issubset(self.crashdb.found_bug_ids()):
                break
        return self.stats, self.crashdb.found_bug_ids()


def minimize_reproducer(
    image: KernelImage, crashdb: CrashDB, title: str
) -> Optional[Reproducer]:
    """Minimize the recorded reproducer for ``title`` against ``image``.

    Standalone so merged multi-shard crash databases (which outlive any
    single fuzzer instance) can be minimized too.
    """
    record = crashdb.records.get(title)
    if record is None or record.reproducer is None:
        return None
    original: Reproducer = record.reproducer
    result = minimize(
        image,
        MTI(sti=original.sti, pair=original.pair, hint=original.hint),
        title,
    )
    return dc_replace(
        original,
        sti=result.mti.sti,
        pair=result.mti.pair,
        hint=result.mti.hint,
    )
