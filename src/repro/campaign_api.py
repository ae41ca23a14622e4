"""The unified campaign API: one entry point for every fuzzing campaign.

Historically each evaluation drove the fuzzer through its own ad-hoc
function (``OzzFuzzer.run``, ``run_table3_campaign``, ``run_table4``,
``measure_throughput``) with inconsistent signatures and result types.
This module replaces them with a single declarative pair:

* :class:`CampaignSpec` — what to run: iteration budget, RNG seed,
  patched bug ids, a :class:`WorkerPolicy` (worker count, batch size,
  heartbeat deadline, retry budget), optional wall-clock budget.
* :class:`CampaignResult` — what happened: merged
  :class:`~repro.fuzzer.fuzzer.FuzzStats`, deduplicated crash records
  with first-finder attribution, found bug ids, wall time, and a
  per-batch breakdown.  JSON round-trips via :meth:`CampaignResult.to_json`
  / :meth:`CampaignResult.from_json`.

:func:`run_campaign` executes a spec and is the *only* public
entrypoint — it routes between the two execution modes:

======== ======================================= =========================
mode     selected by                             machinery
======== ======================================= =========================
serial   ``jobs == 1`` and no robustness knobs   in-process loop over the
                                                 batch plan, one shared
                                                 kernel image + boot
                                                 snapshot, zero forks
pooled   ``jobs > 1`` or ``shard_timeout`` /     persistent worker pool
         ``checkpoint_dir`` set                  (:mod:`repro.fuzzer.supervisor`):
                                                 workers boot once and pull
                                                 batches from a shared queue
======== ======================================= =========================

Determinism is carried by the **batch plan** (:meth:`CampaignSpec.batches`),
not by worker scheduling: batch ``b`` of ``N`` derives its RNG seed as
``seed * 10_000 + b`` and fuzzes the seed-corpus slice ``[b::N]``, so the
union of batch seed inputs is exactly the serial campaign's corpus and
the merged result is a pure function of ``(spec, seed)`` regardless of
which worker executed which batch.
"""

from __future__ import annotations

import json
import time
from dataclasses import InitVar, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.fuzzer.fuzzer import FuzzStats
from repro.fuzzer.triage import CrashDB

#: Batch-seed derivation stride: batch b runs with ``seed * SEED_STRIDE + b``.
SEED_STRIDE = 10_000

#: Result JSON schema: v2 nests the worker knobs under ``spec.policy``.
JSON_FORMAT_VERSION = 2


# -- campaign lifecycle (the service's state machine) ------------------------
#
# A campaign managed by the always-on service (``repro serve``) moves
# through these states.  The machine is deliberately small: "pausing"
# and "cancelling" exist because a running campaign stops at *batch*
# granularity — the supervisor finishes (or abandons) in-flight work,
# writes a checkpoint, and only then does the state settle.

#: Every state a service-managed campaign can be in.
CAMPAIGN_STATES = (
    "queued",      # accepted, waiting for a worker-pool slot
    "running",     # supervisor loop executing the batch plan
    "pausing",     # stop requested; draining to a checkpoint
    "paused",      # checkpointed and idle; resume re-enters the queue
    "cancelling",  # cancel requested; draining to a checkpoint
    "cancelled",   # terminal: stopped by request, partial work kept
    "completed",   # terminal: batch plan drained, result recorded
    "failed",      # terminal: the supervisor itself raised
)

#: States from which a campaign can never move again.
TERMINAL_STATES = frozenset({"cancelled", "completed", "failed"})

#: Legal transitions of the lifecycle machine.  ``running -> queued``
#: is the daemon-restart edge: a campaign that was mid-flight when the
#: service died is re-queued and resumed from its checkpoint.
LIFECYCLE = {
    "queued": ("running", "paused", "cancelled"),
    "running": ("pausing", "cancelling", "completed", "failed", "queued"),
    "pausing": ("paused", "completed", "failed", "cancelling", "queued"),
    "paused": ("queued", "cancelled"),
    "cancelling": ("cancelled", "completed", "failed", "queued"),
    "cancelled": (),
    "completed": (),
    "failed": (),
}


def can_transition(current: str, target: str) -> bool:
    """Whether the lifecycle machine allows ``current -> target``."""
    return target in LIFECYCLE.get(current, ())


def validate_transition(current: str, target: str) -> None:
    """Raise :class:`ConfigError` when ``current -> target`` is illegal."""
    if current not in LIFECYCLE:
        raise ConfigError(f"unknown campaign state {current!r}")
    if target not in LIFECYCLE:
        raise ConfigError(f"unknown campaign state {target!r}")
    if not can_transition(current, target):
        raise ConfigError(
            f"illegal campaign transition {current!r} -> {target!r}"
        )


@dataclass(frozen=True)
class WorkerPolicy:
    """How a campaign's work is executed — the one home for worker knobs.

    ``jobs``          worker processes (1 = in-process serial mode).
    ``batch_size``    iterations per work-queue batch.  ``None`` derives
                      one batch per job (the static-partition layout);
                      an explicit size makes the plan *independent of
                      jobs*, so the same spec run at jobs=1/2/4 yields
                      identical results.
    ``shard_timeout`` seconds without a worker heartbeat before the
                      supervisor declares its current batch hung, kills
                      the worker and retries the batch (None = never).
    ``max_retries``   restarts a failing batch is allowed before it is
                      marked permanently failed (surviving batches still
                      merge).

    CLI flags, checkpoint manifests and the supervisor all consume this
    object; :class:`CampaignSpec` exposes it as ``spec.policy``.
    """

    jobs: int = 1
    batch_size: Optional[int] = None
    shard_timeout: Optional[float] = None
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigError("need at least one job")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ConfigError("shard_timeout must be > 0")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "batch_size": self.batch_size,
            "shard_timeout": self.shard_timeout,
            "max_retries": self.max_retries,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkerPolicy":
        return cls(
            jobs=payload.get("jobs", 1),
            batch_size=payload.get("batch_size"),
            shard_timeout=payload.get("shard_timeout"),
            max_retries=payload.get("max_retries", 2),
        )


@dataclass(frozen=True)
class BatchSpec:
    """One work item of a campaign's deterministic batch plan.

    A batch is an independent mini-campaign: its RNG seed and its
    seed-corpus slice (``[index::nslices]``) are derived from the spec
    alone, so the result of running it is the same whichever worker
    pulls it from the queue — the property that lets the pool steal
    work without perturbing campaign results.
    """

    index: int
    seed: int
    iterations: int
    nslices: int


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of one fuzzing campaign.

    ``iterations``   total pipeline rounds, partitioned across batches.
    ``seed``         base RNG seed; batch b derives ``seed*10_000+b``.
    ``patched``      bug ids whose fixing barriers are compiled in.
    ``jobs``         worker processes (1 = in-process, no fork).
    ``batch_size``   iterations per work-queue batch (None = one batch
                     per job; see :class:`WorkerPolicy`).
    ``time_budget``  optional wall-clock cap in seconds per batch.
    ``use_seeds``    start from the Syzlang seed corpus (§6.1) or not.
    ``static_hints`` seed/prioritize scheduling hints from KIRA's static
                     reordering candidates (zero-execution analysis).
    ``snapshot_reset`` reuse one booted kernel per worker via the boot
                     snapshot; off = fresh boot per test.
    ``prefix_cache`` per-STI prefix snapshots so the MTI fan-out skips
                     re-executing the shared sequential prefix; requires
                     ``snapshot_reset`` (normalized off without it).
                     Results are identical either way.

    Robustness knobs (the campaign supervisor,
    :mod:`repro.fuzzer.supervisor`):

    ``shard_timeout``  seconds without a worker heartbeat before the
                     supervisor declares its batch hung, kills the
                     worker and retries the batch (None = never).
    ``max_retries``  restarts a failing batch is allowed before it is
                     marked permanently failed (its surviving siblings
                     still merge).
    ``checkpoint_dir`` directory for JSON checkpoints (each finished
                     batch, plus a manifest); ``repro fuzz --resume DIR``
                     continues from it (None = no checkpointing).
    ``checkpoint_every`` iterations between a batch's mid-run partial
                     snapshots, kept in memory for the partial merge of
                     an interrupted campaign (never written to disk).

    ``worker_policy`` (init-only) sets ``jobs`` / ``batch_size`` /
    ``shard_timeout`` / ``max_retries`` in one go from a
    :class:`WorkerPolicy`; the folded values are readable back via the
    ``policy`` property.
    """

    iterations: int = 40
    seed: int = 1
    patched: Tuple[str, ...] = ()
    jobs: int = 1
    time_budget: Optional[float] = None
    use_seeds: bool = True
    static_hints: bool = False
    snapshot_reset: bool = True
    prefix_cache: bool = True
    shard_timeout: Optional[float] = None
    max_retries: int = 2
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 10
    batch_size: Optional[int] = None
    worker_policy: InitVar[Optional[WorkerPolicy]] = None

    def __post_init__(self, worker_policy: Optional[WorkerPolicy]) -> None:
        if worker_policy is not None:
            object.__setattr__(self, "jobs", worker_policy.jobs)
            object.__setattr__(self, "batch_size", worker_policy.batch_size)
            object.__setattr__(self, "shard_timeout", worker_policy.shard_timeout)
            object.__setattr__(self, "max_retries", worker_policy.max_retries)
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.time_budget is not None and self.time_budget < 0:
            raise ConfigError("time_budget must be >= 0")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        # WorkerPolicy owns validation of the worker knobs; building it
        # here rejects bad loose fields through the same code path.
        WorkerPolicy(
            jobs=self.jobs,
            batch_size=self.batch_size,
            shard_timeout=self.shard_timeout,
            max_retries=self.max_retries,
        )
        object.__setattr__(self, "patched", tuple(sorted(set(self.patched))))
        object.__setattr__(
            self, "prefix_cache", self.prefix_cache and self.snapshot_reset
        )

    @property
    def policy(self) -> WorkerPolicy:
        """The worker knobs as one :class:`WorkerPolicy` object."""
        return WorkerPolicy(
            jobs=self.jobs,
            batch_size=self.batch_size,
            shard_timeout=self.shard_timeout,
            max_retries=self.max_retries,
        )

    @property
    def supervised(self) -> bool:
        """Whether this spec needs the worker-pool execution path.

        Multi-worker campaigns always do; a single-worker campaign runs
        in-process unless a robustness knob (heartbeat deadline,
        checkpointing) asks for a monitored worker.
        """
        return (
            self.jobs > 1
            or self.shard_timeout is not None
            or self.checkpoint_dir is not None
        )

    @property
    def mode(self) -> str:
        """The execution mode ``run_campaign`` will route to."""
        return "pooled" if self.supervised else "serial"

    def shard_seed(self, shard: int) -> int:
        """The derived deterministic RNG seed for one batch."""
        return self.seed * SEED_STRIDE + shard

    def shard_iterations(self) -> Tuple[int, ...]:
        """Partition the iteration budget across jobs (remainder first)."""
        base, rem = divmod(self.iterations, self.jobs)
        return tuple(base + (1 if k < rem else 0) for k in range(self.jobs))

    def batches(self) -> Tuple[BatchSpec, ...]:
        """The deterministic work plan this spec executes.

        With ``batch_size=None`` the plan is one batch per job — the
        static partition, preserved so existing per-shard results stay
        bit-identical.  With an explicit ``batch_size`` the plan depends
        only on ``iterations``/``batch_size`` (never on ``jobs``), which
        is what makes results invariant under worker-count changes.
        """
        if self.batch_size is None:
            parts = self.shard_iterations()
            return tuple(
                BatchSpec(k, self.shard_seed(k), parts[k], self.jobs)
                for k in range(self.jobs)
            )
        nbatches = max(1, -(-self.iterations // self.batch_size))
        return tuple(
            BatchSpec(
                b,
                self.shard_seed(b),
                min(self.batch_size, self.iterations - b * self.batch_size),
                nbatches,
            )
            for b in range(nbatches)
        )


@dataclass(frozen=True)
class CrashSummary:
    """One merged crash title with first-finder attribution.

    ``first_test_index`` is the minimum batch-local test count at which
    any batch first hit this title — the sharded analogue of the serial
    campaign's tests-to-trigger number.
    """

    title: str
    count: int
    first_test_index: int
    bug_id: Optional[str] = None
    oracle: str = ""


@dataclass(frozen=True)
class ShardStats:
    """Per-batch breakdown of a campaign."""

    shard: int
    seed: int
    iterations: int
    tests_run: int
    crashes: int
    coverage: int
    # Wall-clock is telemetry, not an outcome: excluded from equality so
    # a batch that was killed and deterministically re-run compares equal
    # to its uninterrupted twin.
    seconds: float = field(compare=False)


# -- supervisor telemetry ----------------------------------------------------


@dataclass(frozen=True)
class RetryEvent:
    """One supervisor-initiated batch restart.

    ``iteration`` is the last iteration the worker reported starting
    before it hung or died (-1 if it never heartbeat).
    """

    shard: int
    attempt: int  # the attempt number that failed (0 = first launch)
    reason: str   # "hung" | "died (exit N)" | worker exception repr
    iteration: int


@dataclass(frozen=True)
class QuarantinedInput:
    """An input (batch, iteration) that repeatedly killed its worker.

    After ``deaths`` worker deaths attributed to the same iteration the
    supervisor quarantines it: subsequent attempts skip that iteration
    instead of burning the whole batch's retry budget on it.
    """

    shard: int
    iteration: int
    deaths: int


@dataclass(frozen=True)
class ShardFailure:
    """A batch that exhausted its retry budget and was abandoned.

    The campaign still completes — the surviving batches' results merge —
    but the failure is reported here instead of being silently dropped
    (or, worse, taking every other batch's finished work down with it).
    """

    shard: int
    attempts: int
    reason: str


@dataclass
class CampaignResult:
    """Everything a campaign produced, merged across batches.

    ``stats.coverage`` is recomputed from the union of the batches'
    coverage bitmaps (not a sum), so it is directly comparable to a
    serial run's coverage.  ``crashdb`` is the full merged crash
    database (with reproducers) when the result came from
    :func:`run_campaign`; it is excluded from equality and JSON, and is
    ``None`` after :meth:`from_json`.
    """

    spec: CampaignSpec
    stats: FuzzStats
    crashes: Tuple[CrashSummary, ...]
    found_bug_ids: Tuple[str, ...]
    found_table3: Tuple[str, ...]
    found_table4: Tuple[str, ...]
    seconds: float = field(compare=False)
    shards: Tuple[ShardStats, ...]
    crashdb: Optional[CrashDB] = field(default=None, compare=False, repr=False)
    # Supervisor telemetry (empty for unsupervised in-process runs).
    # Excluded from equality so a campaign that survived faults compares
    # equal to a clean run of the same spec — the determinism guarantee
    # the supervisor's seed re-derivation exists to provide.
    retries: Tuple[RetryEvent, ...] = field(default=(), compare=False)
    quarantined: Tuple[QuarantinedInput, ...] = field(default=(), compare=False)
    failed_shards: Tuple[ShardFailure, ...] = field(default=(), compare=False)
    interrupted: bool = field(default=False, compare=False)
    # Execution-engine telemetry summed across worker processes (boots,
    # resets, decode cache activity, prefix-cache hits).  Workers
    # measure per-batch deltas, so multiprocess runs report real numbers
    # instead of the parent process's untouched module counters.
    engine_counters: Dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def tests_per_sec(self) -> float:
        return self.stats.tests_run / self.seconds if self.seconds > 0 else 0.0

    def summary(self) -> str:
        """Crash-database style text summary (same shape as CrashDB's)."""
        lines = [f"{len(self.crashes)} unique crash titles:"]
        for c in self.crashes:
            tag = f" [{c.bug_id}]" if c.bug_id else ""
            lines.append(f"  x{c.count:<4d} {c.title}{tag}")
        if self.interrupted:
            lines.append("(campaign interrupted; partial merge)")
        for q in self.quarantined:
            lines.append(
                f"quarantined: shard {q.shard} iteration {q.iteration} "
                f"(killed its worker {q.deaths}x)"
            )
        for f in self.failed_shards:
            lines.append(
                f"FAILED: shard {f.shard} abandoned after {f.attempts} "
                f"attempts ({f.reason})"
            )
        return "\n".join(lines)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "version": JSON_FORMAT_VERSION,
            "spec": spec_to_dict(self.spec),
            "stats": {
                "stis_run": self.stats.stis_run,
                "mtis_run": self.stats.mtis_run,
                "hints_computed": self.stats.hints_computed,
                "crashes": self.stats.crashes,
                "hangs": self.stats.hangs,
                "corpus_size": self.stats.corpus_size,
                "coverage": self.stats.coverage,
            },
            "crashes": [
                {
                    "title": c.title,
                    "count": c.count,
                    "first_test_index": c.first_test_index,
                    "bug_id": c.bug_id,
                    "oracle": c.oracle,
                }
                for c in self.crashes
            ],
            "found_bug_ids": list(self.found_bug_ids),
            "found_table3": list(self.found_table3),
            "found_table4": list(self.found_table4),
            "seconds": self.seconds,
            "shards": [
                {
                    "shard": s.shard,
                    "seed": s.seed,
                    "iterations": s.iterations,
                    "tests_run": s.tests_run,
                    "crashes": s.crashes,
                    "coverage": s.coverage,
                    "seconds": s.seconds,
                }
                for s in self.shards
            ],
            "retries": [
                {
                    "shard": r.shard,
                    "attempt": r.attempt,
                    "reason": r.reason,
                    "iteration": r.iteration,
                }
                for r in self.retries
            ],
            "quarantined": [
                {"shard": q.shard, "iteration": q.iteration, "deaths": q.deaths}
                for q in self.quarantined
            ],
            "failed_shards": [
                {"shard": f.shard, "attempts": f.attempts, "reason": f.reason}
                for f in self.failed_shards
            ],
            "interrupted": self.interrupted,
            "engine_counters": dict(self.engine_counters),
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        payload = json.loads(text)
        if payload.get("version") != JSON_FORMAT_VERSION:
            raise ValueError(
                f"unsupported campaign result version {payload.get('version')!r}"
            )
        return cls(
            spec=spec_from_dict(payload["spec"]),
            stats=FuzzStats(**payload["stats"]),
            crashes=tuple(CrashSummary(**c) for c in payload["crashes"]),
            found_bug_ids=tuple(payload["found_bug_ids"]),
            found_table3=tuple(payload["found_table3"]),
            found_table4=tuple(payload["found_table4"]),
            seconds=payload["seconds"],
            shards=tuple(ShardStats(**s) for s in payload["shards"]),
            retries=tuple(RetryEvent(**r) for r in payload.get("retries", ())),
            quarantined=tuple(
                QuarantinedInput(**q) for q in payload.get("quarantined", ())
            ),
            failed_shards=tuple(
                ShardFailure(**f) for f in payload.get("failed_shards", ())
            ),
            interrupted=payload.get("interrupted", False),
            engine_counters=dict(payload.get("engine_counters", {})),
        )


def spec_to_dict(spec: CampaignSpec) -> dict:
    """JSON-safe spec payload, shared by result JSON and checkpoints.

    Schema v2: worker knobs live in the nested ``policy`` dict (the
    :class:`WorkerPolicy` round trip); everything else is flat.
    """
    return {
        "iterations": spec.iterations,
        "seed": spec.seed,
        "patched": list(spec.patched),
        "policy": spec.policy.to_dict(),
        "time_budget": spec.time_budget,
        "use_seeds": spec.use_seeds,
        "static_hints": spec.static_hints,
        "snapshot_reset": spec.snapshot_reset,
        "prefix_cache": spec.prefix_cache,
        "checkpoint_dir": spec.checkpoint_dir,
        "checkpoint_every": spec.checkpoint_every,
    }


#: Keys :func:`spec_from_dict` understands — the service rejects a
#: submitted spec containing anything else so a typoed knob fails loudly
#: instead of silently running with its default.
KNOWN_SPEC_KEYS = frozenset(
    {
        "iterations", "seed", "patched", "policy", "time_budget",
        "use_seeds", "static_hints", "snapshot_reset", "prefix_cache",
        "checkpoint_dir", "checkpoint_every",
        # schema v1 flat worker knobs
        "jobs", "batch_size", "shard_timeout", "max_retries",
    }
)


def spec_from_dict(sp: dict) -> CampaignSpec:
    """Rebuild a spec; absent keys fall back to their field defaults.

    Reads both schema v2 (nested ``policy``) and v1 (flat
    ``jobs``/``shard_timeout``/``max_retries`` keys) payloads — older
    artifacts and checkpoints simply lack the newer keys.  Partial
    payloads (an HTTP submission with only ``{"iterations": 8}``) are
    valid: every key is optional.  Keys it does not read, such as the
    ``engine`` and ``decoded_dispatch`` fields of older payloads, are
    ignored.
    """
    if "policy" in sp:
        policy = WorkerPolicy.from_dict(sp["policy"])
    else:
        policy = WorkerPolicy(
            jobs=sp.get("jobs", 1),
            batch_size=sp.get("batch_size"),
            shard_timeout=sp.get("shard_timeout"),
            max_retries=sp.get("max_retries", 2),
        )
    return CampaignSpec(
        iterations=sp.get("iterations", 40),
        seed=sp.get("seed", 1),
        patched=tuple(sp.get("patched", ())),
        time_budget=sp.get("time_budget"),
        use_seeds=sp.get("use_seeds", True),
        static_hints=sp.get("static_hints", False),
        snapshot_reset=sp.get("snapshot_reset", True),
        prefix_cache=sp.get("prefix_cache", True),
        checkpoint_dir=sp.get("checkpoint_dir"),
        checkpoint_every=sp.get("checkpoint_every", 10),
        worker_policy=policy,
    )


def run_campaign(spec: CampaignSpec) -> CampaignResult:
    """Execute a campaign spec; the one entry point for all campaigns.

    Serial mode (``spec.mode == "serial"``) iterates the batch plan
    in-process over one shared kernel image and boot snapshot — zero
    fork, pickle or boot overhead.  Pooled mode routes through the
    campaign supervisor (:mod:`repro.fuzzer.supervisor`): a persistent
    worker pool pulls batches from a shared queue, hung/dead workers are
    killed and their batches deterministically retried, and merged state
    checkpoints for ``resume_campaign``.  Both paths execute the same
    :func:`repro.fuzzer.parallel.run_batch` code over the same plan, so
    serial, pooled and fault-recovered results are produced by one code
    path and compare equal.
    """
    from repro.fuzzer.parallel import campaign_pool, merge_shards, run_batch

    if not spec.supervised:
        start = time.perf_counter()
        image, pool = campaign_pool(spec)
        shards = [
            run_batch(spec, b, image=image, pool=pool) for b in spec.batches()
        ]
        seconds = time.perf_counter() - start
        return merge_shards(spec, shards, seconds)

    from repro.fuzzer.supervisor import run_supervised

    return run_supervised(spec)


def resume_campaign(checkpoint_dir: str) -> CampaignResult:
    """Continue a checkpointed campaign instead of restarting it.

    Loads the checkpoint manifest written by a pooled campaign, skips
    batches whose results are already complete, re-runs the rest from
    their (deterministically re-derived) seeds, and merges.  The spec
    comes from the checkpoint, so a resumed campaign is the same
    campaign — ``repro fuzz --resume DIR`` exposes this.
    """
    from repro.fuzzer.supervisor import load_checkpoint, run_supervised

    state = load_checkpoint(checkpoint_dir)
    return run_supervised(state.spec, resume_state=state)
