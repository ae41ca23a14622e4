"""The three benchmark workloads and the loop that measures them.

Every campaign goes through the public ``repro.campaign_api`` entry
points, exactly as ``repro fuzz`` and ``repro serve`` drive them.  A run
repeats the workload's round of campaign specs until its time is up, so
each spec runs several times; a round's time is the sum over its specs
of the lower quartile of each spec's repeats (:func:`round_seconds`), so
bursts of host load drop out while every campaign of the round, the
runaway input included, counts.  See NOTES.md for why each workload
exists and which seeds it may use.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.campaign_api import CampaignResult, CampaignSpec, resume_campaign, run_campaign
from repro.kernel.bugs import table3_bugs

from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Campaign seeds of the ``steady`` and ``checkpointed`` specs whose
#: campaigns were checked to hold no runaway input (NOTES.md); the
#: workload seed picks one, so any seed keeps the workload's character.
STEADY_SEEDS = tuple(range(1, 25))

#: Campaigns of one ``table3`` round.
TABLE3_SEEDS_PER_ROUND = 16

#: The one 40-iteration campaign seed among 0-40 that holds the runaway
#: input (NOTES.md); every ``table3`` round runs it.
RUNAWAY_SEED = 1

#: 40-iteration campaign seeds checked free of the runaway input; the
#: workload seed picks the rest of the round from them.
TABLE3_OTHER_SEEDS = tuple(range(2, 41))

#: Side samples per run: each starts one fresh interpreter to time cold
#: set-up and, on serial workloads, resumes the twin checkpoint.
SIDE_SAMPLES = 9

#: Resumes timed per checkpoint (per side sample on serial workloads,
#: per campaign on ``checkpointed``); ``resume_s`` is the lower quartile
#: of all of them.
RESUMES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    specs: Callable[[int], List[CampaignSpec]]
    checkpointed: bool = False


def _table3(seed: int) -> List[CampaignSpec]:
    """The runaway seed plus the next run of runaway-free seeds, so
    ``--seed 1`` is campaign seeds 1-16 and every seed keeps the runaway."""
    others = len(TABLE3_OTHER_SEEDS)
    first = (seed - 1) * (TABLE3_SEEDS_PER_ROUND - 1)
    seeds = [RUNAWAY_SEED] + [
        TABLE3_OTHER_SEEDS[(first + k) % others]
        for k in range(TABLE3_SEEDS_PER_ROUND - 1)
    ]
    return [CampaignSpec(iterations=40, seed=s) for s in seeds]


def _steady(seed: int) -> List[CampaignSpec]:
    return [
        CampaignSpec(
            iterations=2000,
            seed=STEADY_SEEDS[seed % len(STEADY_SEEDS)],
            batch_size=50,
        )
    ]


def _checkpointed(seed: int) -> List[CampaignSpec]:
    return [
        CampaignSpec(
            iterations=600,
            seed=STEADY_SEEDS[seed % len(STEADY_SEEDS)],
            batch_size=20,
            jobs=2,
        )
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("table3", _table3),
        Workload("steady", _steady),
        Workload("checkpointed", _checkpointed, checkpointed=True),
    )
}


# -- memory -------------------------------------------------------------------


def _reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS watermark for this process (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb(reset_ok: bool, pooled: bool) -> float:
    """Peak RSS since the last reset of this process and, for a pooled
    campaign, the largest of its reaped workers.

    The set-up probes are reaped children too, but they hold less than a
    worker (no fuzzing), so they never set the maximum.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if reset_ok:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1]) / 1024
                    break
    if not pooled:
        return own
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)


def _quiesce() -> None:
    """Collect the heap, then freeze what survives before a timed call.

    Garbage the previous campaign left (the runaway's most of all) is
    then not collected on the next one's clock, and the samples this run
    keeps are not rescanned by every collection inside it: a campaign
    pays for its own objects only, as in a process of its own.
    """
    gc.collect()
    gc.freeze()


# -- one run ------------------------------------------------------------------


@dataclass
class Sample:
    """One measured campaign."""

    spec: CampaignSpec
    result: CampaignResult
    seconds: float
    cpu_seconds: float
    rss_mb: float
    traced: bool


@dataclass
class Run:
    """Everything one benchmark run measured and checked."""

    workload: Workload
    samples: List[Sample] = field(default_factory=list)
    resumes: List[List[float]] = field(default_factory=list)  # per checkpoint
    setup: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    failed_campaigns: int = 0
    tracer: Optional[Tracer] = None

    def fail(self, what: str) -> None:
        self.failures.append(what)


class Runner:
    """Measures one workload for a fixed time from one process."""

    def __init__(self, workload: Workload, workdir: str, tracer: Optional[Tracer]):
        self.run = Run(workload=workload, tracer=tracer)
        self.workdir = workdir
        self.tracer = tracer
        self._outcomes: Dict[CampaignSpec, Tuple[int, int, int]] = {}
        self._table3 = frozenset(b.bug_id for b in table3_bugs())
        self._twin_failed = False

    def measure(self, seed: int, seconds: float) -> Run:
        specs = self.run.workload.specs(seed)
        twin = None if self.run.workload.checkpointed else self._twin(specs[0])
        start = time.perf_counter()
        deadline = start + seconds
        side = 0
        rounds = 0
        try:
            # Two rounds at least, so every spec's outcome is seen to
            # repeat.  With tracing, rounds alternate untraced/traced so
            # the overhead compares the same campaigns.
            while rounds < 2 or time.perf_counter() < deadline:
                traced = self.tracer is not None and rounds % 2 == 1
                for spec in specs:
                    self._campaign(spec, traced)
                    # Set-up probes and twin resumes are spread evenly
                    # over the run, so their medians see the whole run's
                    # host load rather than one moment of it.
                    while side < SIDE_SAMPLES and (
                        time.perf_counter() >= start + side * seconds / SIDE_SAMPLES
                    ):
                        self._side_sample(twin)
                        side += 1
                    if rounds >= 2 and time.perf_counter() >= deadline:
                        break
                rounds += 1
            for _ in range(side, SIDE_SAMPLES):
                self._side_sample(twin)
        finally:
            if twin is not None:
                shutil.rmtree(twin[0], ignore_errors=True)
        if twin is not None:
            self._check_twin(specs[0], twin[1])
        return self.run

    # -- campaigns ------------------------------------------------------------

    def _call(self, traced: bool, name: str, fn, *args):
        if not traced:
            return fn(*args)
        self.tracer.install()
        try:
            return self.tracer.root(name, fn, *args)
        finally:
            self.tracer.uninstall()

    def _campaign(self, spec: CampaignSpec, traced: bool) -> None:
        ckpt = None
        run_spec = spec
        if self.run.workload.checkpointed:
            # A fresh directory per campaign: reusing one would silently
            # turn the next campaign into a resume.
            ckpt = tempfile.mkdtemp(prefix="ckpt-", dir=self.workdir)
            run_spec = dataclasses.replace(spec, checkpoint_dir=ckpt)
        self.run.attempted += 1
        failures = len(self.run.failures)
        try:
            _quiesce()
            reset_ok = _reset_peak_rss()
            cpu = time.process_time()
            start = time.perf_counter()
            result = self._call(traced, "campaign", run_campaign, run_spec)
            seconds = time.perf_counter() - start
            cpu = time.process_time() - cpu
            rss = _peak_rss_mb(reset_ok, run_spec.supervised)
            self._check(spec, result)
            if ckpt is not None:
                self._resumes(ckpt, result, traced)
            # The crash database (reproducers, artifacts) is the bulk of a
            # result; keeping hundreds of them would grow the heap, and
            # with it peak RSS and GC time, over the run.
            result.crashdb = None
            self.run.samples.append(Sample(spec, result, seconds, cpu, rss, traced))
        except Exception as exc:  # a raising campaign is a counted failure
            self.run.fail(f"seed {spec.seed}: {type(exc).__name__}: {exc}")
        finally:
            if ckpt is not None:
                shutil.rmtree(ckpt, ignore_errors=True)
        if len(self.run.failures) > failures:
            self.run.failed_campaigns += 1

    def _check(self, spec: CampaignSpec, result: CampaignResult) -> None:
        where = f"seed {spec.seed}"
        if result.retries or result.failed_shards or result.interrupted:
            self.run.fail(f"{where}: a batch was retried, failed or interrupted")
        if self.run.workload.name == "table3":
            missing = self._table3 - set(result.found_table3)
            if missing:
                self.run.fail(f"{where}: Table 3 bugs not found: {sorted(missing)}")
        outcome = (len(result.found_bug_ids), result.stats.coverage, result.stats.tests_run)
        first = self._outcomes.setdefault(spec, outcome)
        if outcome != first:
            self.run.fail(f"{where}: outcome {outcome} differs from {first}")

    def _resumes(self, ckpt: str, result: CampaignResult, traced: bool) -> bool:
        """Time back-to-back resumes; False if one differed from ``result``."""
        times = []
        ok = True
        _quiesce()
        for _ in range(RESUMES):
            start = time.perf_counter()
            resumed = self._call(traced, "resume", resume_campaign, ckpt)
            times.append(time.perf_counter() - start)
            if resumed != result:
                self.run.fail(f"seed {result.spec.seed}: resumed result differs")
                ok = False
        self.run.resumes.append(times)
        return ok

    def _twin(self, spec: CampaignSpec) -> Optional[Tuple[str, CampaignResult]]:
        """Write a finished checkpoint of a serial workload's first spec.

        Serial campaigns write no checkpoint, so a pooled single-worker
        twin writes one for ``resume_s`` to read.  Partial checkpoints are
        skipped, since a resume reads only completed batches.  Returns
        the directory and the twin's result, or None if it raised.
        """
        ckpt = tempfile.mkdtemp(prefix="twin-", dir=self.workdir)
        twin = dataclasses.replace(
            spec, checkpoint_dir=ckpt, checkpoint_every=max(1, spec.iterations)
        )
        self.run.attempted += 1
        try:
            return ckpt, run_campaign(twin)
        except Exception as exc:
            shutil.rmtree(ckpt, ignore_errors=True)
            self.run.fail(f"seed {spec.seed} twin: {type(exc).__name__}: {exc}")
            self.run.failed_campaigns += 1
            return None

    def _check_twin(self, spec: CampaignSpec, result: CampaignResult) -> None:
        """The twin must find what the serial campaign of its spec found,
        and resume to its own result."""
        serial = next((s.result for s in self.run.samples if s.spec == spec), None)
        if serial is not None and (result.stats, result.found_bug_ids) != (
            serial.stats,
            serial.found_bug_ids,
        ):
            self.run.fail(f"seed {spec.seed}: pooled twin differs from serial")
            self._twin_failed = True
        if self._twin_failed:
            self.run.failed_campaigns += 1

    def _side_sample(self, twin: Optional[Tuple[str, CampaignResult]]) -> None:
        """One cold set-up probe and, for serial workloads, twin resumes."""
        args = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py")]
        out = subprocess.run(args, capture_output=True, text=True, timeout=120, check=True)
        self.run.setup.append(float(out.stdout.strip().splitlines()[-1]))
        if twin is not None and not self._resumes(twin[0], twin[1], traced=False):
            self._twin_failed = True


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_spec(
    samples: List[Sample], value: Callable[[Sample], float], pick: Callable
) -> Dict[CampaignSpec, float]:
    """``pick`` (min, median, ...) of ``value`` over each spec's repeats."""
    groups: Dict[CampaignSpec, List[float]] = {}
    for sample in samples:
        groups.setdefault(sample.spec, []).append(value(sample))
    return {spec: pick(values) for spec, values in groups.items()}


def lower_quartile(values: Iterable[float]) -> float:
    """First quartile, interpolated between samples (needs at least two)."""
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def round_seconds(samples: List[Sample]) -> float:
    """Wall time of one round: the sum over specs of the lower quartile
    of each spec's repeats.

    Other tenants of the host slow a campaign in bursts and never speed
    it up, so the repeats above the lower quartile carry most of the
    interference.  The host's speed also drifts over tens of seconds,
    and there the lower quartile varies less from run to run than the
    single best repeat, which depends on one lucky moment.
    """
    return sum(per_spec(samples, lambda s: s.seconds, lower_quartile).values())
