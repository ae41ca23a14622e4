"""Decoded dispatch + boot-snapshot reset — the perf gates.

Two measurements, interleaved min-of-N (alternating A/B runs and keeping
each side's best round cancels machine noise; the *minimum* is the right
statistic for a deterministic workload where every slowdown is
external):

1. **Micro** — a tight uninstrumented store/load/add loop where dispatch
   is the largest possible fraction of the work, run under both engines
   on the *same* program: the reference isinstance-chain interpreter and
   pre-decoded closures (``decoded_dispatch=True``).  Every run must
   return the identical value — the speedup is only valid evidence if
   the engines did the same work.  Target: decoded >= 2x reference.

2. **End-to-end** — a seeded ``OzzFuzzer`` campaign (the ``repro fuzz``
   workload): optimized configuration (decoded dispatch + snapshot
   reset) vs the reference configuration (``decoded_dispatch=False``,
   ``snapshot_reset=False``).  Target: >= 1.3x tests/sec.  The
   campaigns must also be *equivalent*: identical :class:`FuzzStats`
   and identical crash-title sets, asserted every round.

Results land in ``benchmarks/artifacts/interp_dispatch.json`` together
with an :data:`ENGINE_COUNTERS` snapshot (boots vs resets proves the
snapshot path actually carried the optimized campaign).

Run standalone (``python benchmarks/bench_interp_dispatch.py [--quick]``)
or under pytest, where the collected test enforces the CI floor:
every ratio must stay above 1.0 (the optimized side may never lose).
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.config import KernelConfig
from repro.fuzzer.fuzzer import OzzFuzzer
from repro.kernel.kernel import KernelImage
from repro.kir import Builder, Program
from repro.machine import Machine
from repro.mem.memory import DATA_BASE
from repro.oemu.profiler import ENGINE_COUNTERS

ARTIFACT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "artifacts", "interp_dispatch.json"
)

MICRO_ITERS = 20_000   # 5 instructions per loop iteration
MICRO_ROUNDS = 7
E2E_ITERS = 150        # fuzz_one calls per campaign
E2E_ROUNDS = 9
SEED = 7

#: CI floor — the optimized side may never lose to the reference.
FLOOR = 1.0
#: PR acceptance targets (reported in the artifact; enforced when the
#: benchmark is run standalone without --quick).
MICRO_TARGET = 2.0      # decoded vs reference
E2E_TARGET = 1.3


def _loop_program() -> Program:
    """Tight uninstrumented loop: store, load, add, add, branch."""
    b = Builder("spin", params=["n"])
    i = b.mov(0)
    acc = b.mov(0)
    top = b.label()
    b.bind(top)
    b.store(DATA_BASE, 0, i)
    v = b.load(DATA_BASE, 0)
    b.add(acc, v, dst=acc)
    b.add(i, 1, dst=i)
    b.blt(i, b.reg("n"), top)
    b.ret(acc)
    return Program([b.function()])


PROGRAM = _loop_program()


def _micro_once(decoded: bool, iters: int) -> float:
    m = Machine(PROGRAM, decoded_dispatch=decoded)
    thread = m.interp.spawn("spin", (iters,), fuel=10**9)
    t0 = time.perf_counter()
    m.interp.run(thread)
    elapsed = time.perf_counter() - t0
    # Outcome equality: both engines must compute the identical value.
    assert thread.retval == sum(range(iters)), (decoded, thread.retval)
    return elapsed


def bench_micro(iters: int, rounds: int) -> dict:
    best = {False: float("inf"), True: float("inf")}
    for decoded in best:   # warm-up: decode + bytecode caches
        _micro_once(decoded, iters)
    for _ in range(rounds):
        for decoded in best:
            best[decoded] = min(best[decoded], _micro_once(decoded, iters))
    return {
        "loop_iters": iters,
        "rounds": rounds,
        "reference_s": best[False],
        "decoded_s": best[True],
        "speedup": best[False] / best[True],
    }


def _campaign(iters: int, **overrides) -> tuple:
    image = KernelImage(KernelConfig(**overrides))
    fuzzer = OzzFuzzer(image, seed=SEED)
    t0 = time.perf_counter()
    stats = fuzzer.run(iters)
    elapsed = time.perf_counter() - t0
    return elapsed, stats, frozenset(fuzzer.crashdb.unique_titles)


def bench_e2e(iters: int, rounds: int) -> dict:
    opt_t = ref_t = float("inf")
    tests = crashes = None
    # Untimed warm-up pair: decode caches, image build paths and lazy
    # imports settle before either side is timed.
    _campaign(iters)
    _campaign(iters, decoded_dispatch=False, snapshot_reset=False)
    for _ in range(rounds):
        t_o, stats_o, titles_o = _campaign(iters)
        t_r, stats_r, titles_r = _campaign(
            iters, decoded_dispatch=False, snapshot_reset=False
        )
        # Differential gate: same input stream => same campaign outcome.
        assert stats_o == stats_r, (stats_o, stats_r)
        assert titles_o == titles_r, (titles_o, titles_r)
        tests, crashes = stats_o.tests_run, stats_o.crashes
        opt_t = min(opt_t, t_o)
        ref_t = min(ref_t, t_r)
    return {
        "campaign_iters": iters,
        "rounds": rounds,
        "tests_per_campaign": tests,
        "crashes_per_campaign": crashes,
        "outcomes_identical": True,
        "optimized_s": opt_t,
        "reference_s": ref_t,
        "optimized_tests_per_s": tests / opt_t,
        "reference_tests_per_s": tests / ref_t,
        "speedup": ref_t / opt_t,
    }


def run_benchmark(quick: bool = False) -> dict:
    micro_iters = MICRO_ITERS // 4 if quick else MICRO_ITERS
    micro_rounds = 3 if quick else MICRO_ROUNDS
    e2e_iters = 40 if quick else E2E_ITERS
    e2e_rounds = 8 if quick else E2E_ROUNDS

    ENGINE_COUNTERS.reset()
    micro = bench_micro(micro_iters, micro_rounds)
    e2e = bench_e2e(e2e_iters, e2e_rounds)

    artifact = {
        "quick": quick,
        "seed": SEED,
        "targets": {
            "micro_speedup": MICRO_TARGET,
            "e2e_speedup": E2E_TARGET,
        },
        "floor": FLOOR,
        "micro_uninstrumented_loop": micro,
        "e2e_fuzz_campaign": e2e,
        "engine_counters": ENGINE_COUNTERS.snapshot(),
    }
    os.makedirs(os.path.dirname(ARTIFACT_PATH), exist_ok=True)
    with open(ARTIFACT_PATH, "w") as fh:
        json.dump(artifact, fh, indent=2)
    return artifact


def _report(artifact: dict) -> None:
    micro = artifact["micro_uninstrumented_loop"]
    e2e = artifact["e2e_fuzz_campaign"]
    print(
        f"micro: reference {micro['reference_s'] * 1e3:.1f}ms, decoded "
        f"{micro['decoded_s'] * 1e3:.1f}ms -> {micro['speedup']:.2f}x "
        f"(target {MICRO_TARGET:.1f}x)"
    )
    print(
        f"e2e:   optimized {e2e['optimized_tests_per_s']:.0f} tests/s vs reference "
        f"{e2e['reference_tests_per_s']:.0f} tests/s -> {e2e['speedup']:.2f}x "
        f"(target {E2E_TARGET:.1f}x); outcomes identical over "
        f"{e2e['rounds']} rounds of {e2e['tests_per_campaign']} tests"
    )
    print(f"counters: {artifact['engine_counters']}")
    print(f"wrote {ARTIFACT_PATH}")


def test_dispatch_never_slower_than_reference():
    """CI floor: the optimized side may never lose to the reference.

    The full >=2x / >=1.3x acceptance numbers are checked when the
    benchmark runs standalone (see __main__); under pytest (CI machines
    with unpredictable load) only the never-slower floor is enforced.
    """
    artifact = run_benchmark(quick=True)
    _report(artifact)
    micro = artifact["micro_uninstrumented_loop"]["speedup"]
    e2e = artifact["e2e_fuzz_campaign"]["speedup"]
    assert micro > FLOOR, f"decoded dispatch slower than reference: {micro:.2f}x"
    assert e2e > FLOOR, f"optimized campaign slower than reference: {e2e:.2f}x"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads, floor-only check (CI)",
    )
    args = parser.parse_args()
    artifact = run_benchmark(quick=args.quick)
    _report(artifact)
    micro = artifact["micro_uninstrumented_loop"]["speedup"]
    e2e = artifact["e2e_fuzz_campaign"]["speedup"]
    if args.quick:
        ok = micro > FLOOR and e2e > FLOOR
    else:
        ok = micro >= MICRO_TARGET and e2e >= E2E_TARGET
    if not ok:
        print("FAIL: speedup below target")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
