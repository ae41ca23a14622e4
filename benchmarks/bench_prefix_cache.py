"""Prefix-cache gate: the MTI fan-out must not re-pay the prefix.

Workload: a fixed corpus of *long* syscall programs — triple
concatenations of the seed STIs (8-13 calls each), the shape syzkaller
programs actually have — fuzzed on the default (decoded) engine with a
pair budget of 10.  Prefix length is what the cache amortizes: for a pair at
position ``i`` the fan-out re-executes ``i`` calls per interleaving
without the cache, so long programs are where the mechanism earns its
keep (the seed corpus' 2-4 call programs spend under a tenth of their
time in prefixes and bound any cache's effect at ~1.1x; these spend
over a third of their MTI execution there).  Both sides run the same
engine so the comparison isolates the cache.

Measurement is interleaved min-of-N over per-process CPU time
(alternating cached/uncached order each round and keeping each side's
best cancels machine noise; the minimum is the right statistic for a
deterministic workload where every slowdown is external).  The median
of the per-round paired ratios is recorded alongside as a
noise-robustness cross-check.

The speedup is only valid evidence if the cache changed *nothing but
time*, so every round asserts campaign equivalence — identical
:class:`FuzzStats` and identical crash-title sets — and the run is
required to be non-vacuous: the cached campaign's
:data:`ENGINE_COUNTERS` delta must show ``prefix_hits > 0`` and
``calls_skipped > 0`` (a cache that never fired would pass a timing
floor trivially).

Results land in ``benchmarks/artifacts/prefix_cache.json`` with the
counter deltas for both configurations (the uncached side must show
*zero* prefix activity — proving the toggle isolates the mechanism
under test).

Run standalone (``python benchmarks/bench_prefix_cache.py [--quick]``)
or under pytest, where the collected test enforces the CI floor: the
cached campaign must never be slower than the uncached one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

from repro.config import KernelConfig
from repro.fuzzer.fuzzer import OzzFuzzer
from repro.fuzzer.sti import STI, Call, ResourceRef
from repro.fuzzer.templates import seed_inputs
from repro.kernel.kernel import KernelImage
from repro.oemu.profiler import ENGINE_COUNTERS

ARTIFACT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "artifacts", "prefix_cache.json"
)

CORPUS_SIZE = 16       # concatenated seed programs per campaign
E2E_ROUNDS = 14
SEED = 7
MAX_PAIRS = 10

#: CI floor — the cached campaign must never lose to the uncached one.
FLOOR = 1.0
#: PR acceptance target (reported in the artifact; enforced when the
#: benchmark is run standalone without --quick).
E2E_TARGET = 1.2

PREFIX_KEYS = ("prefix_snapshots", "prefix_hits", "calls_skipped")


def _shift(call: Call, offset: int) -> Call:
    return Call(
        call.name,
        tuple(
            ResourceRef(a.index + offset) if isinstance(a, ResourceRef) else a
            for a in call.args
        ),
    )


def _concat(stis) -> STI:
    """Concatenate STIs, rebasing each one's resource refs."""
    calls: list = []
    for sti in stis:
        offset = len(calls)
        calls.extend(_shift(c, offset) for c in sti.calls)
    return STI(tuple(calls))


def _corpus() -> list:
    """Long programs: triple concatenations of the seed STIs (8-13
    calls), picked by a fixed index formula so the corpus is identical
    on every run."""
    seeds = list(seed_inputs())
    n = len(seeds)
    return [
        _concat((seeds[i], seeds[(i * 7 + j) % n], seeds[(i * 3 + 2 * j) % n]))
        for i in range(4)
        for j in range(4)
    ][:CORPUS_SIZE]


def _campaign(*, prefix_cache: bool) -> tuple:
    image = KernelImage(KernelConfig(prefix_cache=prefix_cache))
    fuzzer = OzzFuzzer(
        image, seed=SEED, use_seeds=False, max_pairs_per_sti=MAX_PAIRS
    )
    corpus = _corpus()
    base = ENGINE_COUNTERS.snapshot()
    t0 = time.process_time()
    for sti in corpus:
        fuzzer.fuzz_one(sti)
    elapsed = time.process_time() - t0
    delta = ENGINE_COUNTERS.diff(base)
    return elapsed, fuzzer.stats, frozenset(fuzzer.crashdb.unique_titles), delta


def bench_e2e(rounds: int) -> dict:
    cached_t = uncached_t = float("inf")
    tests = crashes = None
    cached_counters = {k: 0 for k in PREFIX_KEYS}
    paired_ratios = []
    for r in range(rounds):
        order = (True, False) if r % 2 == 0 else (False, True)
        timings, outcomes = {}, {}
        for pc in order:
            t, stats, titles, delta = _campaign(prefix_cache=pc)
            timings[pc], outcomes[pc] = t, (stats, titles, delta)
        stats_c, titles_c, delta_c = outcomes[True]
        stats_u, titles_u, delta_u = outcomes[False]
        # Differential gate: the cache may only change timing.
        assert stats_c == stats_u, (stats_c, stats_u)
        assert titles_c == titles_u, (titles_c, titles_u)
        # Non-vacuity: the cached side actually skipped prefix work,
        # the uncached side provably ran none of the machinery.
        assert delta_c["prefix_hits"] > 0, delta_c
        assert delta_c["calls_skipped"] > 0, delta_c
        assert all(delta_u[k] == 0 for k in PREFIX_KEYS), delta_u
        for k in PREFIX_KEYS:
            cached_counters[k] += delta_c[k]
        tests, crashes = stats_c.tests_run, stats_c.crashes
        paired_ratios.append(timings[False] / timings[True])
        cached_t = min(cached_t, timings[True])
        uncached_t = min(uncached_t, timings[False])
    return {
        "corpus_size": CORPUS_SIZE,
        "max_pairs_per_sti": MAX_PAIRS,
        "rounds": rounds,
        "tests_per_campaign": tests,
        "crashes_per_campaign": crashes,
        "outcomes_identical": True,
        "cached_s": cached_t,
        "uncached_s": uncached_t,
        "cached_tests_per_s": tests / cached_t,
        "uncached_tests_per_s": tests / uncached_t,
        "speedup": uncached_t / cached_t,
        "median_paired_speedup": statistics.median(paired_ratios),
        "cached_prefix_counters": cached_counters,
    }


def run_benchmark(quick: bool = False) -> dict:
    rounds = 2 if quick else E2E_ROUNDS

    ENGINE_COUNTERS.reset()
    e2e = bench_e2e(rounds)

    artifact = {
        "quick": quick,
        "seed": SEED,
        "targets": {"e2e_speedup": E2E_TARGET},
        "floor": FLOOR,
        "e2e_fuzz_campaign": e2e,
        "engine_counters": ENGINE_COUNTERS.snapshot(),
    }
    os.makedirs(os.path.dirname(ARTIFACT_PATH), exist_ok=True)
    with open(ARTIFACT_PATH, "w") as fh:
        json.dump(artifact, fh, indent=2)
    return artifact


def _report(artifact: dict) -> None:
    e2e = artifact["e2e_fuzz_campaign"]
    counters = e2e["cached_prefix_counters"]
    print(
        f"e2e: cached {e2e['cached_tests_per_s']:.0f} "
        f"tests/s vs uncached {e2e['uncached_tests_per_s']:.0f} tests/s -> "
        f"{e2e['speedup']:.2f}x (target {E2E_TARGET:.1f}x); outcomes "
        f"identical over {e2e['rounds']} rounds of "
        f"{e2e['tests_per_campaign']} tests"
    )
    print(
        f"cache: {counters['prefix_hits']} hits, "
        f"{counters['prefix_snapshots']} snapshots, "
        f"{counters['calls_skipped']} prefix calls skipped"
    )
    print(f"wrote {ARTIFACT_PATH}")


def test_prefix_cache_never_slower():
    """CI floor: the cached campaign must never lose to the uncached one.

    The full >=1.2x acceptance number is checked when the benchmark runs
    standalone (see __main__); under pytest (CI machines with
    unpredictable load) only the never-slower floor is enforced.  The
    equivalence and non-vacuity asserts inside bench_e2e are exact and
    enforced everywhere.
    """
    artifact = run_benchmark(quick=True)
    _report(artifact)
    e2e = artifact["e2e_fuzz_campaign"]["speedup"]
    assert e2e > FLOOR, f"cached campaign slower than uncached: {e2e:.2f}x"
    assert artifact["e2e_fuzz_campaign"]["outcomes_identical"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller workload, floor-only check (CI)",
    )
    args = parser.parse_args()
    artifact = run_benchmark(quick=args.quick)
    _report(artifact)
    e2e = artifact["e2e_fuzz_campaign"]["speedup"]
    if args.quick:
        ok = e2e > FLOOR
    else:
        ok = e2e >= E2E_TARGET
    if not ok:
        print("FAIL: speedup below target")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
