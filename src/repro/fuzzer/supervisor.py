"""Crash-tolerant campaign runtime: a persistent worker pool with retries.

The paper ran OZZ for six weeks across 32 VMs (§6.1); at that scale the
throughput story is *amortization* — syzkaller-style managers keep
executor processes alive and feed them work instead of forking per
program — and workers hang, die and get preempted, so the unglamorous
fault-tolerance layer is what makes a long campaign finish.  This module
provides both halves:

* **Persistent workers.** ``spec.jobs`` worker processes are launched
  once per campaign.  Each takes the kernel image from its process's
  image memo (under ``fork`` it inherits the supervisor's, so nothing
  is rebuilt) and boots one kernel into a
  :class:`~repro.kernel.kernel.KernelPool`, then *pulls batches* from
  the supervisor until the plan is drained — work-stealing falls out of
  the pull model: a worker that finishes early simply claims the next
  batch while a slow sibling is still busy.  Batches are independent
  mini-campaigns (own derived seed, own seed-corpus slice), so results
  are a pure function of ``(spec, seed)`` no matter how claims land.
* **Supervision.**  Workers heartbeat through a shared message queue
  before every fuzzing iteration; the supervisor **kills and replaces**
  a worker whose heartbeat exceeds ``shard_timeout`` (hung) or whose
  process exits mid-batch (died), and the orphaned batch is re-queued
  with capped exponential backoff — the retry re-derives the same batch
  seed, so a recovered campaign is byte-identical to an unfaulted one.
  When the same batch-local iteration kills its worker
  :data:`POISON_THRESHOLD` times the input is **quarantined** (skipped,
  reported) instead of burning the retry budget; a batch that exhausts
  ``max_retries`` is abandoned and the survivors **merge** — a worker
  failure is telemetry, never an exception that discards finished work.
* **Checkpoint/resume.**  Finished batches are written to
  ``checkpoint_dir`` as JSON, so ``repro fuzz --resume DIR`` — and a
  ``SIGINT`` that lands mid-campaign — continue instead of restarting.

Coverage crosses the wire as :class:`~repro.fuzzer.kcov.CoverageMap`
**bitmap deltas**: each worker remembers what it already reported for
its current batch and ships only the new pages; the supervisor folds
deltas into a per-batch accumulator.  Address sets never cross the
queue as pickled Python sets.

Checkpoint layout (all JSON, schema :data:`CHECKPOINT_VERSION`)::

    DIR/campaign.json     manifest: spec (with nested WorkerPolicy), the
                          claim log, completed batches, telemetry
    DIR/shard-000.json    one completed batch result (stats, crashdb,
                          coverage bitmap hex)

Each ``shard-NNN.json`` is written once, when its batch finishes; only
the manifest is rewritten.  Resume is **batch-granular**: completed
batches load from disk; an unfinished batch re-runs from iteration 0
with its re-derived seed, which reproduces exactly the prefix it had
already executed — so a kill/resume cycle finds the same crash set as
an uninterrupted run without having to serialize RNG or corpus state
mid-stream.  Mid-run partial snapshots stay in memory: they serve only
the partial merge of an interrupted campaign and are never written.

Fault injection (tests, the CI resilience job) goes through
:class:`FaultPlan` or the ``REPRO_INJECT_FAULT`` environment variable
(``kind:shard:iteration[:persistent]``, comma-separated; kinds
``hang`` | ``die`` | ``error`` | ``slow``).
"""

from __future__ import annotations

import itertools
import json
import multiprocessing as mp
import os
import pickle
import queue as _queue
import signal
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign_api import (
    BatchSpec,
    CampaignResult,
    CampaignSpec,
    QuarantinedInput,
    RetryEvent,
    ShardFailure,
    spec_from_dict,
    spec_to_dict,
)
from repro.errors import ConfigError
from repro.fuzzer.kcov import CoverageMap
from repro.fuzzer.parallel import (
    ShardResult,
    campaign_image,
    campaign_pool,
    merge_shards,
    run_batch,
)
from repro.trace import (
    NULL_SINK,
    BatchClaimed,
    BatchStolen,
    CheckpointWritten,
    InputQuarantined,
    ShardHeartbeat,
    ShardRetried,
    ShardStarted,
    TraceSink,
)

#: Worker deaths attributed to one iteration before it is quarantined.
POISON_THRESHOLD = 2

#: Version of the on-disk checkpoint schema (v2: nested WorkerPolicy,
#: claim log in the manifest, coverage as bitmap hex).
CHECKPOINT_VERSION = 2
CHECKPOINT_KIND = "ozz-campaign-checkpoint"
MANIFEST_NAME = "campaign.json"

#: Environment variable for CLI-level fault injection (CI resilience job).
FAULT_ENV = "REPRO_INJECT_FAULT"

_POLL_INTERVAL = 0.05   # supervisor queue poll period (seconds)
_DRAIN_GRACE = 1.0      # wait for a dead worker's final messages
_HANG_SLEEP = 3600.0    # an injected hang sleeps until the supervisor kills it
_SLOW_SLEEP = 1.0       # an injected slow batch stalls this long, then runs
_FAULT_EXIT = 17        # exit code of an injected worker death
_ORPHAN_POLL = 1.0      # idle worker's task-queue timeout between parent checks


@dataclass(frozen=True)
class FaultPlan:
    """An injected worker fault, for tests and the CI resilience job.

    The fault fires when batch ``shard`` reaches batch-local iteration
    ``iteration``: ``hang`` stops heartbeating (the supervisor must kill
    the worker), ``die`` exits the worker process abruptly, ``error``
    raises inside the batch (the old ``Pool.map``-poisoning case —
    the persistent worker survives it and moves on), ``slow`` stalls the
    batch for a while and then completes it (exercises work-stealing:
    the other workers drain the queue meanwhile).  Non-persistent faults
    arm only on the batch's first attempt, so the deterministic retry
    runs clean; ``persistent`` faults re-arm on every attempt and model
    a poisoned input that kills whoever runs it.
    """

    shard: int
    iteration: int
    kind: str  # "hang" | "die" | "error" | "slow"
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("hang", "die", "error", "slow"):
            raise ConfigError(f"unknown fault kind {self.kind!r}")


def faults_from_env(value: Optional[str] = None) -> Tuple[FaultPlan, ...]:
    """Parse ``REPRO_INJECT_FAULT`` (``kind:shard:iter[:persistent],...``)."""
    if value is None:
        value = os.environ.get(FAULT_ENV, "")
    plans = []
    for item in filter(None, (s.strip() for s in value.split(","))):
        parts = item.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"bad {FAULT_ENV} entry {item!r}")
        plans.append(
            FaultPlan(
                kind=parts[0],
                shard=int(parts[1]),
                iteration=int(parts[2]),
                persistent=len(parts) == 4 and parts[3] == "persistent",
            )
        )
    return tuple(plans)


# -- worker side -------------------------------------------------------------


def _trigger_fault(fault: FaultPlan, msgq) -> None:
    if fault.kind == "hang":
        time.sleep(_HANG_SLEEP)
    elif fault.kind == "slow":
        time.sleep(_SLOW_SLEEP)
    elif fault.kind == "die":
        # Flush the queue's feeder thread so the heartbeat that names
        # this iteration reaches the supervisor, then die abruptly.
        msgq.close()
        msgq.join_thread()
        os._exit(_FAULT_EXIT)
    elif fault.kind == "error":
        raise RuntimeError(f"injected worker error at iteration {fault.iteration}")


def _wire_payload(result: ShardResult, sent: CoverageMap, full: CoverageMap) -> bytes:
    """Pickle a (result, coverage-delta) pair for the message queue.

    ``sent`` is the worker's per-batch ledger of already-reported
    coverage; only the delta crosses the wire, and the ledger advances
    so the next snapshot ships strictly new pages.  The result's own
    coverage field travels empty — the supervisor reconstructs it from
    its delta accumulator.  Pickling is *eager* so the queue's feeder
    thread never races the fuzzing loop's mutations.
    """
    delta = full.delta(sent)
    sent.merge(delta)
    stripped = ShardResult(
        shard=result.shard,
        seed=result.seed,
        iterations=result.iterations,
        stats=result.stats,
        crashdb=result.crashdb,
        coverage=CoverageMap(),
        seconds=result.seconds,
        engine_counters=result.engine_counters,
    )
    return pickle.dumps((stripped, delta.to_bytes()))


def _run_assignment(
    spec: CampaignSpec,
    batch: BatchSpec,
    attempt: int,
    quarantined: Tuple[int, ...],
    faults: Tuple[FaultPlan, ...],
    image,
    pool,
    msgq,
) -> None:
    """Execute one claimed batch inside a persistent worker.

    Wraps :func:`run_batch` with a progress callback that heartbeats,
    honours the quarantine list, triggers injected faults, and ships a
    partial snapshot (with a coverage bitmap delta) every
    ``spec.checkpoint_every`` iterations.  An exception is reported as
    a batch-scoped ``error`` — the worker survives and pulls its next
    assignment.
    """
    try:
        armed = {f.iteration: f for f in faults}
        skip = frozenset(quarantined)
        holder: Dict[str, object] = {}
        sent_cov = CoverageMap()
        start = time.perf_counter()

        def progress(i, stats):
            msgq.put(("hb", batch.index, attempt, i))
            if i in skip:
                msgq.put(("skipped", batch.index, attempt, i))
                return False
            fault = armed.pop(i, None)
            if fault is not None:
                _trigger_fault(fault, msgq)
            fuzzer = holder.get("fuzzer")
            if fuzzer is not None and i > 0 and i % spec.checkpoint_every == 0:
                partial = ShardResult(
                    shard=batch.index,
                    seed=batch.seed,
                    iterations=i,
                    stats=fuzzer.stats,
                    crashdb=fuzzer.crashdb,
                    coverage=CoverageMap(),
                    seconds=time.perf_counter() - start,
                )
                payload = _wire_payload(partial, sent_cov, fuzzer.corpus.coverage)
                msgq.put(("partial", batch.index, attempt, payload))
            return None

        result = run_batch(
            spec,
            batch,
            image=image,
            pool=pool,
            progress=progress,
            on_fuzzer=lambda fz: holder.__setitem__("fuzzer", fz),
        )
        payload = _wire_payload(result, sent_cov, result.coverage)
        msgq.put(("done", batch.index, attempt, payload))
    except Exception as exc:  # ship the reason; the supervisor retries
        msgq.put(("error", batch.index, attempt, f"{type(exc).__name__}: {exc}"))


def _pool_worker_main(wid: int, spec: CampaignSpec, taskq, msgq) -> None:
    """Persistent-worker entry point: boot once, pull batches until done.

    The kernel image is inherited from the supervisor's image memo
    under ``fork`` (built locally otherwise — once, amortized across
    every batch this worker claims), and one booted kernel is held in a
    :class:`KernelPool` across batches; each batch's fuzzer resets it to
    the boot snapshot per test, which is equivalent to a fresh boot.

    A SIGKILLed supervisor sends no poison pill, so an idle worker polls
    its queue and exits once its parent pid changes (it was reparented).
    """
    parent = os.getppid()
    try:
        image, pool = campaign_pool(spec)
        while True:
            try:
                task = taskq.get(timeout=_ORPHAN_POLL)
            except _queue.Empty:
                if os.getppid() != parent:
                    # Nobody reads msgq any more: exit without waiting
                    # for its buffered messages to reach the pipe.
                    msgq.cancel_join_thread()
                    return
                continue
            if task is None:
                return
            batch, attempt, quarantined, faults = task
            _run_assignment(
                spec, batch, attempt, quarantined, faults, image, pool, msgq
            )
            msgq.put(("ready", wid, 0, None))
    except (KeyboardInterrupt, EOFError, OSError):
        # Supervisor teardown (SIGINT forwarded to the process group /
        # queues closing under us): exit quietly, nothing to report.
        pass


# -- supervisor side ---------------------------------------------------------


class _BatchState:
    """Everything the supervisor tracks about one batch of the plan."""

    def __init__(self, batch: BatchSpec) -> None:
        self.batch = batch
        self.index = batch.index
        self.seed = batch.seed
        self.result: Optional[ShardResult] = None
        self.saved = False  # result already written to the checkpoint
        self.partial: Optional[ShardResult] = None
        self.attempt = 0
        self.assigned_to: Optional[int] = None  # worker id, None = pending
        self.last_worker: Optional[int] = None
        self.last_hb = 0.0
        self.last_iteration = -1
        self.deaths: Dict[int, int] = {}
        self.quarantined: set = set()
        self.restart_at: Optional[float] = None
        self.failure: Optional[ShardFailure] = None
        self.cov_acc = CoverageMap()  # union of this attempt's deltas

    @property
    def finished(self) -> bool:
        return self.result is not None or self.failure is not None


class CampaignController:
    """Thread-safe control seam for a supervisor loop run off-thread.

    The always-on service (``repro serve``) runs ``run_supervised`` in a
    background thread; this object is how the foreground talks to it:

    * :meth:`request_stop` asks the loop to stop cleanly at batch
      granularity — the supervisor checkpoints and partial-merges
      exactly as it does for ``SIGINT``, so a paused campaign resumes
      from its checkpoint equal to an uninterrupted run.  ``reason``
      distinguishes a pause (resumable) from a cancel (terminal).
    * :meth:`progress` returns the latest snapshot of the batch plan
      (total/done/failed batch counts plus per-batch last iteration),
      refreshed by the supervisor on every poll tick.

    Pass it to :func:`run_supervised` via ``controller=``; it composes
    with an explicit ``stop_when`` predicate (either may stop the run).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stop_reason: Optional[str] = None
        self._snapshot: Dict[str, object] = {
            "batches": 0, "done": 0, "failed": 0, "iterations": {},
        }

    def request_stop(self, reason: str = "stop") -> None:
        with self._lock:
            if self._stop_reason is None:
                self._stop_reason = reason

    @property
    def stop_requested(self) -> bool:
        with self._lock:
            return self._stop_reason is not None

    @property
    def stop_reason(self) -> Optional[str]:
        with self._lock:
            return self._stop_reason

    def observe(self, states: Dict[int, "_BatchState"]) -> None:
        """Refresh the progress snapshot (called by the supervisor loop)."""
        snap = {
            "batches": len(states),
            "done": sum(1 for st in states.values() if st.result is not None),
            "failed": sum(1 for st in states.values() if st.failure is not None),
            "iterations": {
                st.index: st.last_iteration
                for st in states.values()
                if st.last_iteration >= 0
            },
        }
        with self._lock:
            self._snapshot = snap

    def progress(self) -> Dict[str, object]:
        """The latest batch-plan snapshot (safe to call from any thread)."""
        with self._lock:
            return dict(self._snapshot)


class _Worker:
    """One persistent worker process and its private task queue."""

    def __init__(self, wid: int, proc, taskq) -> None:
        self.wid = wid
        self.proc = proc
        self.taskq = taskq
        self.current: Optional[int] = None  # batch index being executed
        self.ready = True  # a fresh worker accepts its first task at once


@dataclass
class CheckpointState:
    """A loaded checkpoint directory (see :func:`load_checkpoint`)."""

    spec: CampaignSpec
    completed: Dict[int, ShardResult]
    quarantined: Tuple[QuarantinedInput, ...] = ()
    retries: Tuple[RetryEvent, ...] = ()
    interrupted: bool = False
    assignments: Tuple[dict, ...] = ()  # the claim log, oldest first


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _shard_file(dirpath: str, shard: int) -> str:
    return os.path.join(dirpath, f"shard-{shard:03d}.json")


def write_checkpoint(
    dirpath: str,
    spec: CampaignSpec,
    states: Dict[int, "_BatchState"],
    retries: Sequence[RetryEvent],
    quarantined: Sequence[QuarantinedInput],
    interrupted: bool,
    sink: TraceSink = NULL_SINK,
    assignments: Sequence[dict] = (),
) -> None:
    """Persist campaign state; every write is atomic (tmp+rename).

    A finished batch's file is written the first time it is seen here
    and never again; the manifest is rewritten on every call.  The v2
    manifest records the claim log (which worker ran which batch on
    which attempt) so a checkpoint is auditable evidence that results
    never depended on claim order.
    """
    os.makedirs(dirpath, exist_ok=True)
    completed = []
    for shard in sorted(states):
        st = states[shard]
        if st.result is None:
            continue
        if not st.saved:
            _atomic_write(
                _shard_file(dirpath, shard),
                json.dumps(st.result.to_json_dict(), indent=2),
            )
            st.saved = True
        completed.append(shard)
    manifest = {
        "version": CHECKPOINT_VERSION,
        "kind": CHECKPOINT_KIND,
        "spec": spec_to_dict(spec),
        "assignments": list(assignments),
        "completed": completed,
        "quarantined": [
            {"shard": q.shard, "iteration": q.iteration, "deaths": q.deaths}
            for q in quarantined
        ],
        "retries": [
            {
                "shard": r.shard,
                "attempt": r.attempt,
                "reason": r.reason,
                "iteration": r.iteration,
            }
            for r in retries
        ],
        "failed": [
            {
                "shard": st.failure.shard,
                "attempts": st.failure.attempts,
                "reason": st.failure.reason,
            }
            for st in states.values()
            if st.failure is not None
        ],
        "interrupted": interrupted,
    }
    _atomic_write(os.path.join(dirpath, MANIFEST_NAME), json.dumps(manifest, indent=2))
    if sink.active:
        sink.emit(CheckpointWritten(completed_shards=len(completed)))


def load_checkpoint(dirpath: str) -> CheckpointState:
    """Load a checkpoint directory written by a pooled campaign.

    Any damage — an undecodable file, a missing or mistyped key, a
    listed batch file that is missing, a version other than
    :data:`CHECKPOINT_VERSION` — raises one :class:`ConfigError` that
    names the file.  The returned spec has ``checkpoint_dir`` pointed
    back at ``dirpath`` so the resumed campaign keeps checkpointing in
    place (directories move; the stored path is advisory).
    """
    path = os.path.join(dirpath, MANIFEST_NAME)
    if not os.path.exists(path):
        raise ConfigError(f"no campaign checkpoint at {dirpath!r} "
                          f"(missing {MANIFEST_NAME})")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
        if not isinstance(manifest, dict) or manifest.get("kind") != CHECKPOINT_KIND:
            raise ConfigError("not a campaign checkpoint")
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(
                f"unsupported checkpoint version {manifest.get('version')!r}"
            )
        state = CheckpointState(
            spec=spec_from_dict(dict(manifest["spec"], checkpoint_dir=dirpath)),
            completed={},
            quarantined=tuple(QuarantinedInput(**q) for q in manifest["quarantined"]),
            retries=tuple(RetryEvent(**r) for r in manifest["retries"]),
            interrupted=manifest["interrupted"],
            assignments=tuple(dict(a) for a in manifest["assignments"]),
        )
        for shard in manifest["completed"]:
            path = _shard_file(dirpath, shard)
            with open(path) as fh:
                state.completed[shard] = ShardResult.from_json_dict(json.load(fh))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{path}: {type(exc).__name__}: {exc}") from exc
    return state


def run_supervised(
    spec: CampaignSpec,
    *,
    faults: Sequence[FaultPlan] = (),
    sink: TraceSink = NULL_SINK,
    resume_state: Optional[CheckpointState] = None,
    retry_backoff: float = 0.25,
    backoff_cap: float = 5.0,
    poison_threshold: int = POISON_THRESHOLD,
    stop_when: Optional[Callable[[Dict[int, "_BatchState"]], bool]] = None,
    controller: Optional[CampaignController] = None,
) -> CampaignResult:
    """Run a campaign's batch plan on the worker pool and merge it.

    ``faults`` injects worker misbehaviour (tests / CI); entries from
    the ``REPRO_INJECT_FAULT`` environment variable are appended.
    ``stop_when`` is a per-loop predicate over the internal batch states
    that requests a clean early stop — the programmatic twin of the
    ``SIGINT`` handler, used to test the partial-merge path
    deterministically.  ``controller`` is the thread-safe version of the
    same seam (:class:`CampaignController`): the loop refreshes its
    progress snapshot every poll tick and honours its stop request,
    which is how ``repro serve`` pauses/cancels a backgrounded campaign.
    """
    faults = tuple(faults) + faults_from_env()
    start = time.perf_counter()
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)
    msgq = ctx.Queue()

    states: Dict[int, _BatchState] = {
        b.index: _BatchState(b) for b in spec.batches()
    }
    retries: List[RetryEvent] = []
    quarantined_log: List[QuarantinedInput] = []
    assignments: List[dict] = []
    if resume_state is not None:
        for shard, result in resume_state.completed.items():
            if shard in states:
                states[shard].result = result
                states[shard].saved = True  # its file is already on disk
        for q in resume_state.quarantined:
            if q.shard in states:
                states[q.shard].quarantined.add(q.iteration)
            quarantined_log.append(q)
        retries.extend(resume_state.retries)
        assignments.extend(resume_state.assignments)

    workers: Dict[int, _Worker] = {}
    wid_counter = itertools.count()
    interrupted = [False]
    # Set when a batch finishes or fails for good; the loop writes the
    # checkpoint once per tick, after feeding ready workers, so no
    # worker idles through the write.
    dirty = [False]

    def _on_sigint(signum, frame):
        interrupted[0] = True

    def _spawn_worker() -> None:
        wid = next(wid_counter)
        taskq = ctx.Queue()
        proc = ctx.Process(
            target=_pool_worker_main,
            args=(wid, spec, taskq, msgq),
            daemon=True,
        )
        proc.start()
        workers[wid] = _Worker(wid, proc, taskq)

    def _assign(w: _Worker, st: _BatchState) -> None:
        batch_faults = tuple(
            f
            for f in faults
            if f.shard == st.index and (st.attempt == 0 or f.persistent)
        )
        w.taskq.put(
            (st.batch, st.attempt, tuple(sorted(st.quarantined)), batch_faults)
        )
        w.current = st.index
        w.ready = False
        stolen_from = st.last_worker
        st.assigned_to = w.wid
        st.last_worker = w.wid
        st.last_hb = time.monotonic()
        st.last_iteration = -1
        st.restart_at = None
        assignments.append(
            {"batch": st.index, "attempt": st.attempt, "worker": w.wid}
        )
        if sink.active:
            sink.emit(ShardStarted(shard=st.index, seed=st.seed, attempt=st.attempt))
            sink.emit(
                BatchClaimed(worker=w.wid, batch=st.index, attempt=st.attempt)
            )
            if stolen_from is not None and stolen_from != w.wid:
                sink.emit(
                    BatchStolen(
                        worker=w.wid,
                        batch=st.index,
                        from_worker=stolen_from,
                        attempt=st.attempt,
                    )
                )

    def _next_eligible(now: float) -> Optional[_BatchState]:
        for index in sorted(states):
            st = states[index]
            if st.finished or st.assigned_to is not None:
                continue
            if st.restart_at is not None and now < st.restart_at:
                continue
            return st
        return None

    def _checkpoint() -> None:
        if spec.checkpoint_dir is not None:
            write_checkpoint(
                spec.checkpoint_dir,
                spec,
                states,
                retries,
                quarantined_log,
                interrupted[0],
                sink,
                assignments=assignments,
            )

    def _fail_attempt(st: _BatchState, reason: str) -> None:
        retries.append(
            RetryEvent(
                shard=st.index,
                attempt=st.attempt,
                reason=reason,
                iteration=st.last_iteration,
            )
        )
        if sink.active:
            sink.emit(ShardRetried(shard=st.index, attempt=st.attempt, reason=reason))
        if st.last_iteration >= 0:
            n = st.deaths[st.last_iteration] = (
                st.deaths.get(st.last_iteration, 0) + 1
            )
            if n >= poison_threshold and st.last_iteration not in st.quarantined:
                st.quarantined.add(st.last_iteration)
                q = QuarantinedInput(
                    shard=st.index, iteration=st.last_iteration, deaths=n
                )
                quarantined_log.append(q)
                if sink.active:
                    sink.emit(
                        InputQuarantined(
                            shard=st.index, iteration=st.last_iteration, deaths=n
                        )
                    )
        st.partial = None
        st.cov_acc = CoverageMap()
        st.assigned_to = None
        st.attempt += 1
        if st.attempt > spec.max_retries:
            st.failure = ShardFailure(
                shard=st.index, attempts=st.attempt, reason=reason
            )
            dirty[0] = True
        else:
            delay = min(backoff_cap, retry_backoff * (2 ** (st.attempt - 1)))
            st.restart_at = time.monotonic() + delay

    def _handle(msg) -> None:
        kind, a, b, payload = msg
        if kind == "ready":
            w = workers.get(a)
            if w is not None:
                w.ready = True
                w.current = None
            return
        st = states.get(a)
        if st is None or b != st.attempt or st.finished:
            return  # stale message from a superseded attempt
        st.last_hb = time.monotonic()
        if kind == "hb":
            st.last_iteration = payload
            if sink.active:
                sink.emit(ShardHeartbeat(shard=st.index, iteration=payload))
        elif kind == "skipped":
            pass  # liveness only; the quarantined input was not run
        elif kind == "partial":
            result, delta = pickle.loads(payload)
            st.cov_acc.merge(CoverageMap.from_bytes(delta))
            result.coverage = st.cov_acc.copy()
            st.partial = result
        elif kind == "done":
            result, delta = pickle.loads(payload)
            st.cov_acc.merge(CoverageMap.from_bytes(delta))
            result.coverage = st.cov_acc
            st.result = result
            st.partial = None
            st.assigned_to = None
            dirty[0] = True
        elif kind == "error":
            _fail_attempt(st, payload)

    def _drain_available() -> None:
        while True:
            try:
                msg = msgq.get_nowait()
            except _queue.Empty:
                return
            _handle(msg)

    def _poll(timeout: float) -> None:
        """Block up to ``timeout`` for one message, then sweep the rest."""
        try:
            msg = msgq.get(timeout=timeout)
        except _queue.Empty:
            return
        _handle(msg)
        _drain_available()

    def _await_verdict(st: _BatchState, timeout: float) -> None:
        """A worker exited: wait briefly for its final in-flight messages.

        The queue's feeder thread flushes at process exit, so a "done"
        or "error" may land just after ``is_alive()`` flips — give it a
        grace period before declaring an unexplained death.
        """
        attempt = st.attempt
        deadline = time.monotonic() + timeout
        while not st.finished and st.attempt == attempt:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            try:
                msg = msgq.get(timeout=remaining)
            except _queue.Empty:
                return
            _handle(msg)

    def _kill(proc) -> None:
        proc.terminate()
        proc.join(timeout=1.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=1.0)

    def _retire_worker(w: _Worker) -> None:
        """Drop a dead/killed worker; replace it if pending work remains."""
        workers.pop(w.wid, None)
        needs_worker = any(
            not st.finished and st.assigned_to is None for st in states.values()
        )
        if needs_worker and not interrupted[0]:
            _spawn_worker()

    in_main_thread = threading.current_thread() is threading.main_thread()
    previous_handler = None
    if in_main_thread:
        previous_handler = signal.signal(signal.SIGINT, _on_sigint)
    try:
        unfinished = [st for st in states.values() if not st.finished]
        if unfinished:
            if method == "fork":
                # Build (or find) the image in this process's memo;
                # forked workers inherit it instead of each building one.
                campaign_image(spec)
            for _ in range(min(spec.jobs, len(unfinished))):
                _spawn_worker()

        while not interrupted[0]:
            unfinished = [st for st in states.values() if not st.finished]
            if not unfinished:
                break
            _poll(_POLL_INTERVAL)
            now = time.monotonic()
            # Feed ready workers from the pending end of the plan.
            for w in list(workers.values()):
                if not w.ready:
                    continue
                st = _next_eligible(now)
                if st is None:
                    break
                _assign(w, st)
            if dirty[0]:
                dirty[0] = False
                _checkpoint()
            # Health: replace dead workers, kill hung ones.
            for w in list(workers.values()):
                if not w.proc.is_alive():
                    w.proc.join()
                    cur = w.current
                    if cur is not None:
                        st = states[cur]
                        attempt = st.attempt
                        _await_verdict(st, _DRAIN_GRACE)
                        if (
                            not st.finished
                            and st.attempt == attempt
                            and st.assigned_to == w.wid
                        ):
                            _fail_attempt(
                                st, f"died (exit {w.proc.exitcode})"
                            )
                    _retire_worker(w)
                elif (
                    w.current is not None
                    and spec.shard_timeout is not None
                    and states[w.current].assigned_to == w.wid
                    and not states[w.current].finished
                    and now - states[w.current].last_hb > spec.shard_timeout
                ):
                    _kill(w.proc)
                    _drain_available()  # heartbeats sent before it wedged
                    st = states[w.current]
                    if not st.finished and st.assigned_to == w.wid:
                        _fail_attempt(st, "hung")
                    _retire_worker(w)
            if controller is not None:
                controller.observe(states)
                if controller.stop_requested:
                    interrupted[0] = True
            if stop_when is not None and stop_when(states):
                interrupted[0] = True
    finally:
        if in_main_thread and previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)
        for w in workers.values():
            try:
                w.taskq.put(None)  # poison pill for idle workers
            except Exception:
                pass
        for w in workers.values():
            w.proc.join(timeout=0.05 if interrupted[0] else 0.5)
            if w.proc.is_alive():
                _kill(w.proc)

    if interrupted[0]:
        _drain_available()  # late partials from the workers just killed

    seconds = time.perf_counter() - start
    _checkpoint()
    if controller is not None:
        controller.observe(states)  # final snapshot reflects the drained plan

    if interrupted[0]:
        # Clean partial merge: completed results plus the freshest
        # mid-run snapshot of every batch that was cut short.
        shards = [
            st.result or st.partial
            for st in states.values()
            if st.result is not None or st.partial is not None
        ]
    else:
        shards = [st.result for st in states.values() if st.result is not None]
    return merge_shards(
        spec,
        shards,
        seconds,
        retries=retries,
        quarantined=quarantined_log,
        failed_shards=[
            states[k].failure
            for k in sorted(states)
            if states[k].failure is not None
        ],
        interrupted=interrupted[0],
    )
