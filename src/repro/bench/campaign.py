"""Campaign drivers shared by the benchmark harness and examples.

These functions regenerate the paper's evaluation artifacts:

* :func:`run_table3_campaign` — §6.1: fuzz the buggy kernel and report
  which of the 11 new bugs were found (Table 3).
* :func:`reproduce_bug` / :func:`run_table4` — §6.2: per known bug,
  build the syzbot-style input, sweep scheduling hints, and count the
  tests needed to trigger it (Table 4), including the sbitmap negative
  result and its manual-modification check.
* :func:`measure_throughput` — §6.3.2: OZZ vs the in-order baseline.
* :func:`heuristic_ablation` — §4.3: max-reorder-first hint ordering vs
  alternatives.
* :func:`kcsan_comparison` — §7: which seeded bugs KCSAN's model covers.

The campaign-shaped drivers (:func:`run_table3_campaign`,
:func:`measure_throughput`) are thin wrappers over the unified
:func:`repro.campaign_api.run_campaign` entry point — prefer building a
:class:`~repro.campaign_api.CampaignSpec` directly in new code; the
wrappers exist so established benchmarks and examples keep working.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign_api import CampaignSpec, run_campaign
from repro.config import KernelConfig
from repro.fuzzer.baselines import SyzkallerBaseline
from repro.fuzzer.hints import SchedulingHint, calculate_hints, prioritize_hints
from repro.fuzzer.mti import MTI, run_mti
from repro.fuzzer.sti import STI, Call, ResourceRef, profile_sti
from repro.kernel import bugs
from repro.kernel.kernel import kernel_image
from repro.oracles.kcsan import Kcsan


def _arg(value) -> object:
    if isinstance(value, str) and value.startswith("ret"):
        return ResourceRef(int(value[3:]))
    return value


def sti_for_bug(spec: bugs.BugSpec) -> Tuple[STI, Tuple[int, int]]:
    """Build the §6.2-style input for a known bug.

    Returns the STI and the indices of the concurrent pair.  Call order
    matters for profiling: guarded readers must run *after* the state
    they read is published, or their deep paths never profile — so
    load-type bugs put the observer first (plus the xsk teardown case).
    """
    calls = [
        Call(name, tuple(_arg(a) for a in args))
        for name, args in zip(
            spec.setup_syscalls,
            list(spec.setup_args) + [()] * (len(spec.setup_syscalls) - len(spec.setup_args)),
        )
    ]
    victim = Call(spec.victim_syscall, tuple(_arg(a) for a in spec.victim_args))
    observer = Call(spec.observer_syscall, tuple(_arg(a) for a in spec.observer_args))
    observer_first = spec.barrier_test == "load"
    if observer_first:
        calls.extend([observer, victim])
    else:
        calls.extend([victim, observer])
    pair = (len(calls) - 2, len(calls) - 1)
    return STI(tuple(calls)), pair


@dataclass
class ReproResult:
    """One Table 4 row, measured."""

    bug_id: str
    reproduced: bool
    n_tests: int
    trigger_type: str = ""     # "S-S" | "S-L" | "L-L" | ""
    title: str = ""

    def checkmark(self) -> str:
        if not self.reproduced:
            return "x"
        base_id = self.bug_id.split("+", 1)[0]
        return "v" if bugs.get(base_id).crash_symptom else "v*"


def reproduce_bug(
    spec: bugs.BugSpec,
    *,
    config: Optional[KernelConfig] = None,
    hint_order: str = "max",
    rng_seed: int = 0,
    max_tests: int = 500,
    static_hints: bool = False,
) -> ReproResult:
    """Sweep scheduling hints for a bug's input until its crash appears.

    ``hint_order`` selects the §4.3 search heuristic: ``max`` (the
    paper's, most-reordered first), ``min`` (fewest first) or ``random``
    — used by the heuristic ablation.  ``static_hints`` additionally
    front-loads hints that overlap KIRA's static reordering candidates
    (within each barrier-type partition, so the shape sweep order is
    preserved) — the ``bench_static_hints`` benchmark's knob.
    """
    image = kernel_image(config if config is not None else KernelConfig())
    sti, pair = sti_for_bug(spec)
    profile = profile_sti(image, sti)
    if profile.crash is not None:
        return ReproResult(spec.bug_id, False, 0, title=f"STI crashed: {profile.crash.title}")
    i, j = pair
    hints = calculate_hints(profile.profiles[i], profile.profiles[j])
    # Table 4 reports the type OZZ reproduced each bug with; sweep the
    # spec's hypothetical-barrier shape first (both shapes still run).
    wanted = "ld" if spec.barrier_test == "load" else "st"
    preferred = [h for h in hints if h.barrier_type == wanted]
    other = [h for h in hints if h.barrier_type != wanted]
    if static_hints:
        from repro.analysis.barriers import (
            candidate_pairs,
            static_reordering_candidates,
        )

        pairs_by_kind = candidate_pairs(
            static_reordering_candidates(image.plain_program)
        )
        preferred = prioritize_hints(preferred, pairs_by_kind)
        other = prioritize_hints(other, pairs_by_kind)
    hints = preferred + other
    if hint_order == "min":
        hints = list(reversed(hints))
    elif hint_order == "random":
        rng = random.Random(rng_seed)
        hints = list(hints)
        rng.shuffle(hints)
    n_tests = 1  # the profiled STI run counts as a test
    for hint in hints:
        if n_tests >= max_tests:
            break
        result = run_mti(image, MTI(sti=sti, pair=pair, hint=hint))
        n_tests += 1
        if result.crashed and result.crash.title == spec.title:
            trigger = "L-L" if hint.barrier_type == "ld" else (
                "S-S" if spec.reorder_type != "S-L" else "S-L"
            )
            return ReproResult(spec.bug_id, True, n_tests, trigger, result.crash.title)
    return ReproResult(spec.bug_id, False, n_tests)


def run_table4(*, with_sbitmap_modification: bool = True) -> List[ReproResult]:
    """Reproduce every Table 4 bug; the sbitmap row fails (as in the
    paper) unless the manual per-CPU modification is applied."""
    results: List[ReproResult] = []
    for spec in bugs.table4_bugs():
        result = reproduce_bug(spec)
        if (
            not result.reproduced
            and spec.bug_id == "t4_sbitmap"
            and with_sbitmap_modification
        ):
            modified = reproduce_bug(
                spec, config=KernelConfig(sbitmap_manual_percpu=True)
            )
            modified.title = (modified.title or "") + " (with manual per-CPU modification)"
            results.append(result)
            results.append(
                ReproResult(
                    bug_id=spec.bug_id + "+manual",
                    reproduced=modified.reproduced,
                    n_tests=modified.n_tests,
                    trigger_type=modified.trigger_type,
                    title=modified.title,
                )
            )
            continue
        results.append(result)
    return results


@dataclass
class Table3CampaignResult:
    """Legacy result shape of :func:`run_table3_campaign` (pre-dates the
    unified :class:`~repro.campaign_api.CampaignResult`)."""

    found_table3: List[str]
    found_table4: List[str]
    unique_titles: List[str]
    tests_run: int
    seconds: float
    first_hit_tests: Dict[str, int] = field(default_factory=dict)


#: Deprecated alias, kept for established imports; new code should use
#: :class:`repro.campaign_api.CampaignResult`.
CampaignResult = Table3CampaignResult


def run_table3_campaign(
    *, seed: int = 1, iterations: int = 30, jobs: int = 1
) -> Table3CampaignResult:
    """§6.1: fuzz the buggy kernel from the seed corpus.

    Deprecated thin wrapper over :func:`repro.campaign_api.run_campaign`;
    kept so existing benchmarks and examples keep their result shape.
    """
    result = run_campaign(CampaignSpec(iterations=iterations, seed=seed, jobs=jobs))
    return Table3CampaignResult(
        found_table3=list(result.found_table3),
        found_table4=list(result.found_table4),
        unique_titles=[c.title for c in result.crashes],
        tests_run=result.stats.tests_run,
        seconds=result.seconds,
        first_hit_tests={
            c.bug_id: c.first_test_index for c in result.crashes if c.bug_id
        },
    )


@dataclass
class ThroughputResult:
    ozz_tests_per_sec: float
    baseline_tests_per_sec: float

    @property
    def slowdown(self) -> float:
        return self.baseline_tests_per_sec / self.ozz_tests_per_sec


def measure_throughput(
    *, iterations: int = 21, seed: int = 3, jobs: int = 1
) -> ThroughputResult:
    """§6.3.2: OZZ (instrumented, hint-driven) vs the Syzkaller-like
    in-order baseline (plain kernel, random schedules).

    Deprecated thin wrapper: the OZZ side now runs through
    :func:`repro.campaign_api.run_campaign`, so ``jobs>1`` shards it
    across worker processes while the baseline stays single-process.
    """
    ozz = run_campaign(CampaignSpec(iterations=iterations, seed=seed, jobs=jobs))
    ozz_rate = ozz.tests_per_sec

    plain_image = kernel_image(KernelConfig(instrumented=False))
    baseline = SyzkallerBaseline(plain_image, seed=seed)
    start = time.perf_counter()
    baseline.run_seeds(rounds=1)
    base_rate = baseline.stats.tests_run / (time.perf_counter() - start)
    return ThroughputResult(ozz_rate, base_rate)


def heuristic_ablation(*, orders: Sequence[str] = ("max", "min", "random")) -> Dict[str, Dict[str, int]]:
    """§4.3: tests-to-trigger per bug under different hint orderings."""
    out: Dict[str, Dict[str, int]] = {order: {} for order in orders}
    for spec in bugs.all_bugs():
        if not spec.reproducible:
            continue
        for order in orders:
            result = reproduce_bug(spec, hint_order=order, rng_seed=11)
            out[order][spec.bug_id] = result.n_tests if result.reproduced else -1
    return out


@dataclass
class KcsanVerdict:
    bug_id: str
    race_visible: bool        # KCSAN sees *a* data race near the bug
    model_covers: bool        # the reordering fits KCSAN's model
    expected: bool


def kcsan_comparison() -> List[KcsanVerdict]:
    """§7: check each Table 3 bug against KCSAN's detection model."""
    image = kernel_image(KernelConfig())
    kcsan = Kcsan()
    verdicts: List[KcsanVerdict] = []
    for spec in bugs.table3_bugs():
        sti, pair = sti_for_bug(spec)
        profile = profile_sti(image, sti)
        i, j = pair
        races = kcsan.find_races(profile.profiles[i].accesses, profile.profiles[j].accesses)
        hints = calculate_hints(profile.profiles[i], profile.profiles[j])
        covers = False
        if hints:
            top = hints[0]
            side_profile = profile.profiles[pair[top.reorder_side]]
            window = [
                a for a in side_profile.accesses if a.inst_addr in set(top.reorder)
            ]
            covers = bool(races) and kcsan.can_see_reordering(window)
        verdicts.append(
            KcsanVerdict(spec.bug_id, bool(races), covers, spec.kcsan_visible)
        )
    return verdicts
