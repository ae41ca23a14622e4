"""Batch-plan campaign execution: the work unit and the merge.

OZZ's campaign loop is embarrassingly parallel across RNG seeds: real
kernel fuzzers get their throughput from fleets of VMs, and the
simulated kernel here is a pure-Python object with no shared state
between instances.  A :class:`~repro.campaign_api.CampaignSpec` compiles
to a deterministic **batch plan** (:meth:`CampaignSpec.batches`); this
module owns executing one batch (:func:`run_batch`) and folding batch
results back into one :class:`~repro.campaign_api.CampaignResult`
(:func:`merge_shards`):

* **seeds** — batch b derives ``spec.seed * 10_000 + b`` and takes the
  seed-corpus slice ``[b::N]``, so the union of batch seed inputs is
  exactly the serial campaign's corpus and the merged result is a pure
  function of ``(spec, seed)`` no matter which worker ran which batch,
* **stats** — :meth:`FuzzStats.merge` (counter sums), with coverage
  recomputed from the word-wise union of batch
  :class:`~repro.fuzzer.kcov.CoverageMap` bitmaps,
* **crashes** — :meth:`CrashDB.merge`, preserving first-finder
  attribution (minimum tests-at-discovery across batches) so Table 3/4
  numbers stay meaningful; merge order is canonicalized by batch index.

Process management lives in :mod:`repro.fuzzer.supervisor`: a persistent
worker pool pulls batches from a shared queue with heartbeats,
deadlines, deterministic retries and checkpointing.  Everything a worker
receives or returns is picklable, so it works under both ``fork`` and
``spawn`` start methods, and JSON-serializable, so batch results survive
in checkpoints.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from repro.config import KernelConfig
from repro.fuzzer.fuzzer import FuzzStats, OzzFuzzer
from repro.fuzzer.kcov import CoverageMap
from repro.fuzzer.triage import CrashDB
from repro.kernel.kernel import KernelImage, KernelPool, kernel_image

if TYPE_CHECKING:  # deferred at runtime: campaign_api imports this package
    from repro.campaign_api import BatchSpec, CampaignResult, CampaignSpec


def campaign_image(spec: "CampaignSpec") -> KernelImage:
    """The kernel image a spec's batches run against (memoized)."""
    return kernel_image(
        KernelConfig(
            patched=frozenset(spec.patched),
            snapshot_reset=spec.snapshot_reset,
            prefix_cache=spec.prefix_cache,
        )
    )


def campaign_pool(spec: "CampaignSpec") -> Tuple[KernelImage, Optional[KernelPool]]:
    """One (image, boot-snapshot pool) pair to amortize across batches.

    The image comes from the process's memo, so only the first campaign
    of a config builds it; the pool holds the booted kernel the batches
    reset instead of re-booting.  Both are deterministic functions of
    the config, so sharing them across batches and campaigns (or handing
    each pool worker its own) cannot change campaign results.
    """
    image = campaign_image(spec)
    pool = KernelPool(image) if spec.snapshot_reset else None
    return image, pool


@dataclass
class ShardResult:
    """One batch's raw output, shipped back over the message queue."""

    shard: int
    seed: int
    iterations: int
    stats: FuzzStats
    crashdb: CrashDB
    coverage: CoverageMap
    seconds: float
    # Engine-counter deltas measured around this batch's run, in the
    # process that actually ran it (empty in checkpoints that predate it).
    engine_counters: Dict[str, int] = field(default_factory=dict)

    # -- checkpoint serialization ------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON-safe payload for the campaign checkpoint directory.

        Coverage is stored as the CoverageMap hex wire form.
        """
        from dataclasses import asdict

        return {
            "shard": self.shard,
            "seed": self.seed,
            "iterations": self.iterations,
            "stats": asdict(self.stats),
            "crashdb": self.crashdb.to_json_dict(),
            "coverage": self.coverage.to_hex(),
            "seconds": self.seconds,
            "engine_counters": dict(self.engine_counters),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ShardResult":
        return cls(
            shard=payload["shard"],
            seed=payload["seed"],
            iterations=payload["iterations"],
            stats=FuzzStats(**payload["stats"]),
            crashdb=CrashDB.from_json_dict(payload["crashdb"]),
            coverage=CoverageMap.from_hex(payload["coverage"]),
            seconds=payload["seconds"],
            engine_counters=dict(payload.get("engine_counters", {})),
        )


def run_batch(
    spec: "CampaignSpec",
    batch: "BatchSpec",
    *,
    image: Optional[KernelImage] = None,
    pool: Optional[KernelPool] = None,
    progress: Optional[Callable[[int, FuzzStats], Optional[bool]]] = None,
    on_fuzzer: Optional[Callable[[OzzFuzzer], None]] = None,
) -> ShardResult:
    """Run one batch of a campaign's plan (top-level, pickle-friendly).

    Builds a fresh fuzzer with the batch's derived seed and corpus
    slice, runs its iteration quota, and returns the picklable pieces
    the merge needs.  ``image`` and ``pool`` let a long-lived caller (a
    pool worker, the serial loop) amortize the boot snapshot across many
    batches; left ``None``, the memoized image and a private pool are
    used.
    ``progress`` is forwarded to :meth:`OzzFuzzer.run` — the
    supervisor's heartbeat / fault-injection / quarantine seam;
    ``on_fuzzer`` hands the constructed fuzzer to the caller before the
    run starts, so a pool worker can snapshot mid-run state for the
    partial merge of an interrupted campaign.
    """
    if image is None:
        image, pool = campaign_pool(spec)
    fuzzer = OzzFuzzer(
        image,
        seed=batch.seed,
        use_seeds=spec.use_seeds,
        shard=batch.index,
        nshards=batch.nslices,
        static_hints=spec.static_hints,
        pool=pool,
    )
    if on_fuzzer is not None:
        on_fuzzer(fuzzer)
    deadline = (
        time.monotonic() + spec.time_budget if spec.time_budget is not None else None
    )
    from repro.oemu.profiler import ENGINE_COUNTERS

    counter_base = ENGINE_COUNTERS.snapshot()
    start = time.perf_counter()
    fuzzer.run(batch.iterations, deadline=deadline, progress=progress)
    seconds = time.perf_counter() - start
    return ShardResult(
        shard=batch.index,
        seed=batch.seed,
        iterations=batch.iterations,
        stats=fuzzer.stats,
        crashdb=fuzzer.crashdb,
        coverage=fuzzer.corpus.coverage.copy(),
        seconds=seconds,
        # Delta over this batch only, measured in the worker process —
        # this is what survives the trip back over the result queue.
        engine_counters=ENGINE_COUNTERS.diff(counter_base),
    )


def merge_shards(
    spec: "CampaignSpec",
    shards: Sequence[ShardResult],
    seconds: float,
    *,
    retries: Sequence = (),
    quarantined: Sequence = (),
    failed_shards: Sequence = (),
    interrupted: bool = False,
) -> "CampaignResult":
    """Fold batch results into one campaign result.

    The input order is canonicalized (sorted by batch index) before
    folding, so the merge is a pure function of the result *set* — a
    pool that finished batches in a scrambled order merges identically
    to the serial loop.  Coverage is the cardinality of the word-wise
    bitmap union, so the merged number is comparable to a serial run's
    (duplicate addresses across batches are not double-counted).
    ``shards`` holds whatever survived — permanently-failed batches
    appear in ``failed_shards`` telemetry instead, and an empty list
    merges to an empty result rather than raising.
    """
    from repro.campaign_api import CampaignResult, CrashSummary, ShardStats

    shards = sorted(shards, key=lambda s: s.shard)
    merged_counters: Dict[str, int] = {}
    for s in shards:
        for key, value in getattr(s, "engine_counters", {}).items():
            merged_counters[key] = merged_counters.get(key, 0) + value
    if shards:
        stats = shards[0].stats
        crashdb = shards[0].crashdb
        merged_cov = shards[0].coverage.copy()
        for s in shards[1:]:
            stats = stats.merge(s.stats)
            crashdb = crashdb.merge(s.crashdb)
            merged_cov.merge(s.coverage)
        stats = replace(stats, coverage=len(merged_cov))
    else:
        stats = FuzzStats()
        crashdb = CrashDB()
    crashes = tuple(
        CrashSummary(
            title=rec.title,
            count=rec.count,
            first_test_index=rec.first_test_index,
            bug_id=rec.bug_id,
            oracle=rec.first_report.oracle,
        )
        for _, rec in sorted(crashdb.records.items())
    )
    shard_stats = tuple(
        ShardStats(
            shard=s.shard,
            seed=s.seed,
            iterations=s.iterations,
            tests_run=s.stats.tests_run,
            crashes=s.stats.crashes,
            coverage=s.stats.coverage,
            seconds=s.seconds,
        )
        for s in shards
    )
    return CampaignResult(
        spec=spec,
        stats=stats,
        crashes=crashes,
        found_bug_ids=tuple(crashdb.found_bug_ids()),
        found_table3=tuple(crashdb.found_table3()),
        found_table4=tuple(crashdb.found_table4()),
        seconds=seconds,
        shards=shard_stats,
        crashdb=crashdb,
        retries=tuple(retries),
        quarantined=tuple(quarantined),
        failed_shards=tuple(failed_shards),
        interrupted=interrupted,
        engine_counters=merged_counters,
    )
