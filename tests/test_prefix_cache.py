"""Prefix-cache differential suite: snapshot-tree positioning vs fresh runs.

The prefix cache's contract is the same as the boot snapshot's, one
level up: a kernel positioned by *restoring* a prefix snapshot must be
byte-identical to one that *executed* the prefix fresh after boot — in
every observable, under both engines — so cached and uncached
campaigns produce equal results while the cached one skips the repeated
sequential prefix work.
"""

import os

import pytest

from repro.campaign_api import CampaignSpec, spec_from_dict, spec_to_dict
from repro.config import KernelConfig
from repro.errors import ExecutionLimitExceeded
from repro.fuzzer.fuzzer import OzzFuzzer
from repro.fuzzer.hints import (
    LD,
    ST,
    _hit_count,
    access_occurrences,
    filter_out,
    group_by_barriers,
)
from repro.fuzzer.prefix import PrefixCache
from repro.fuzzer.sti import STI, profile_sti, resolve_args
from repro.fuzzer.templates import seed_inputs
from repro.kernel.kernel import Kernel, KernelImage, KernelPool
from repro.kir.insn import BarrierKind
from repro.oemu.profiler import AccessEvent, Profiler
from repro.trace.replayer import CrashArtifact, replay_artifact

SAMPLE_CRASH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "examples", "sample_crash.json"
)

TIERS = ("reference", "decoded")


@pytest.fixture(params=TIERS)
def tier(request):
    """Run the test once on the reference oracle and once on the decoded engine."""
    if request.param == "reference":
        request.getfixturevalue("reference_engine")
    return request.param


@pytest.fixture(scope="module")
def image():
    return KernelImage(KernelConfig())


def _world(kernel):
    return (
        kernel.memory.fingerprint(),
        kernel.shadow.fingerprint(),
        kernel.clock.now,
        kernel.allocator.total_allocs,
        kernel.allocator.total_frees,
        kernel._next_thread,
        dict(kernel.fdtable),
        kernel.next_fd,
    )


def _longest_seed() -> STI:
    return max(seed_inputs(), key=len)


def _fresh_prefix_world(image, sti, prefix_len):
    """Execute calls[0..prefix_len) on a fresh kernel; (world, retvals)."""
    kernel = Kernel(image)
    retvals = []
    for call in sti.calls[:prefix_len]:
        retvals.append(kernel.run_syscall(call.name, resolve_args(call, retvals)))
    return _world(kernel), retvals


class TestPositioningEquivalence:
    def test_restored_prefix_matches_fresh_execution(self, image, tier):
        """Every prefix depth of the longest seed STI: cache-positioned
        world and retvals == fresh sequential execution, per engine."""
        sti = _longest_seed()
        assert len(sti) >= 3, "seed corpus lost its long STI"
        cache = PrefixCache(KernelPool(image), sti)
        for depth in range(len(sti) + 1):
            kernel, retvals = cache.position(depth)
            fresh_world, fresh_retvals = _fresh_prefix_world(image, sti, depth)
            assert _world(kernel) == fresh_world, (tier, depth)
            assert retvals == fresh_retvals, (tier, depth)

    def test_exact_hit_replays_identically(self, image, tier):
        """Positioning twice at the same depth (2nd time via pure
        restore) yields the identical world — and counts a hit."""
        sti = _longest_seed()
        cache = PrefixCache(KernelPool(image), sti)
        depth = len(sti) - 1
        kernel, retvals1 = cache.position(depth)
        first = _world(kernel)
        hits_before = kernel.engine_counters.prefix_hits
        kernel, retvals2 = cache.position(depth)
        assert _world(kernel) == first
        assert retvals1 == retvals2
        assert kernel.engine_counters.prefix_hits == hits_before + 1

    def test_dirty_tracking_survives_restore_cycles(self, image):
        """boot → prefix → boot → prefix again: the delta overlay must
        re-mark pages dirty, or the second cycle restores a stale world."""
        sti = _longest_seed()
        pool = KernelPool(image)
        cache = PrefixCache(pool, sti)
        kernel, _ = cache.position(2)
        prefix_world = _world(kernel)
        boot_world = _world(pool.acquire())  # back to boot
        kernel, _ = cache.position(2)  # restore the delta again
        assert _world(kernel) == prefix_world
        assert _world(pool.acquire()) == boot_world

    def test_longer_prefix_extends_deepest_cached(self, image):
        """A deeper request executes only the missing calls and caches
        every level on the way up (contiguous snapshot tree)."""
        sti = _longest_seed()
        cache = PrefixCache(KernelPool(image), sti)
        cache.position(1)
        assert sorted(cache._snaps) == [1]
        kernel, _ = cache.position(len(sti))
        assert sorted(cache._snaps) == list(range(1, len(sti) + 1))
        assert cache.depth == len(sti)
        # The extension restored the depth-1 snapshot (a partial hit).
        assert kernel.engine_counters.prefix_hits >= 1


class TestPoisonedPrefix:
    def test_failed_prefix_call_poisons_deeper_requests(self, image):
        sti = _longest_seed()
        pool = KernelPool(image)
        cache = PrefixCache(pool, sti)
        kernel = pool.acquire()

        real = Kernel.run_syscall
        calls = {"n": 0}

        def exploding(self, name, args=(), **kw):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise ExecutionLimitExceeded("injected prefix hang")
            return real(self, name, args, **kw)

        Kernel.run_syscall = exploding
        try:
            assert cache.position(3) is None
        finally:
            Kernel.run_syscall = real
        # Depths beyond the failure stay poisoned; shallower ones work.
        assert cache.position(3) is None
        assert cache.position(2) is None  # failed at index 1 (2nd call)
        assert cache.position(1) is not None
        assert cache.position(0) is not None


class TestCampaignEquivalence:
    def test_campaign_results_equal_cache_on_off(self, tier):
        """30-iteration campaigns, prefix cache on vs off, per engine:
        equal stats and crash titles, and the cached run is non-vacuous
        (prefix_hits > 0)."""
        results, kernels = {}, {}
        for prefix_cache in (True, False):
            image = KernelImage(KernelConfig(prefix_cache=prefix_cache))
            pool = KernelPool(image)
            fuzzer = OzzFuzzer(image, seed=9, pool=pool)
            stats = fuzzer.run(30)
            results[prefix_cache] = (stats, frozenset(fuzzer.crashdb.unique_titles))
            kernels[prefix_cache] = pool.acquire()
        assert results[True] == results[False]
        on, off = kernels[True].engine_counters, kernels[False].engine_counters
        assert on.prefix_hits > 0
        assert on.calls_skipped > 0
        assert off.prefix_hits == 0
        assert results[True][0].tests_run > 0
        assert kernels[True].interp.unobserved is (tier == "decoded")

    def test_fuzzer_counters_flow_from_cache(self):
        """In-process campaign: module counters pick up hits/snapshots."""
        from repro.oemu.profiler import ENGINE_COUNTERS

        base = ENGINE_COUNTERS.snapshot()
        fuzzer = OzzFuzzer(KernelImage(KernelConfig()), seed=5)
        fuzzer.run(20)
        delta = ENGINE_COUNTERS.diff(base)
        assert delta["prefix_snapshots"] > 0
        assert delta["prefix_hits"] > 0
        assert delta["calls_skipped"] >= delta["prefix_hits"]


class TestReplay:
    @pytest.mark.parametrize("prefix_cache", (True, False))
    def test_sample_crash_replays_with_and_without_cache(self, prefix_cache):
        """The shipped artifact replays byte-for-byte whether or not the
        replay image enables prefix caching (recording/replay runs boot
        fresh kernels, so the toggle must be invisible to them)."""
        artifact = CrashArtifact.load(SAMPLE_CRASH)
        verdict = replay_artifact(
            artifact,
            image=KernelImage(
                KernelConfig(
                    patched=frozenset(artifact.reproducer.patched),
                    prefix_cache=prefix_cache,
                )
            ),
        )
        assert verdict.ok, (prefix_cache, verdict.render())


class TestSpecAndConfig:
    def test_spec_round_trips_prefix_cache(self):
        spec = CampaignSpec(iterations=5, prefix_cache=False)
        assert spec_from_dict(spec_to_dict(spec)) == spec
        # Absent key (older payloads) defaults on.
        payload = spec_to_dict(CampaignSpec(iterations=5))
        del payload["prefix_cache"]
        assert spec_from_dict(payload).prefix_cache is True

    def test_prefix_cache_requires_snapshot_reset(self):
        assert not KernelConfig(snapshot_reset=False).prefix_cache
        assert not CampaignSpec(snapshot_reset=False).prefix_cache
        assert KernelConfig().prefix_cache
        assert CampaignSpec().prefix_cache


class TestSatelliteRegressions:
    def test_sched_hit_precompute_matches_reference_on_seeds(self):
        """Satellite 1: the one-pass occurrence map agrees with the
        O(n²) reference scan for every group of every seed STI pair."""
        image = KernelImage(KernelConfig())
        checked = 0
        for sti in seed_inputs():
            profile = profile_sti(image, sti)
            assert profile.ok
            for i in range(len(profile.profiles) - 1):
                a, b = profile.profiles[i], profile.profiles[i + 1]
                fa, fb = filter_out(a.events, b.events)
                for events in (fa, fb):
                    accesses = [
                        e for e in events if isinstance(e, AccessEvent)
                    ]
                    occ = access_occurrences(accesses)
                    for barrier_type in (ST, LD):
                        for group in group_by_barriers(events, barrier_type):
                            if len(group) < 2:
                                continue
                            sched = (
                                group[-1] if barrier_type == ST else group[0]
                            )
                            assert occ[id(sched)] == _hit_count(
                                accesses, sched
                            )
                            checked += 1
        assert checked > 0, "no groups exercised — vacuous"

    def test_profiler_detach_protects_cached_profiles(self):
        """Satellite 3: a profile captured from a pooled kernel must not
        mutate when the same kernel+profiler profile the next STI."""
        image = KernelImage(KernelConfig())
        pool = KernelPool(image)
        profiler = Profiler()
        seeds = list(seed_inputs())
        first = profile_sti(image, seeds[0], kernel=pool.acquire(profiler=profiler))
        snapshot = [tuple(p.events) for p in first.profiles]
        assert any(snapshot), "first profile recorded nothing — vacuous"
        profile_sti(image, seeds[1], kernel=pool.acquire(profiler=profiler))
        assert [tuple(p.events) for p in first.profiles] == snapshot

    def test_events_for_detaches(self):
        profiler = Profiler()
        profiler.start_thread(7)
        profiler.on_barrier(7, 0x10, BarrierKind.FULL, 1, False, "f")
        events = profiler.events_for(7)
        assert len(events) == 1
        # Detached: a second request is empty, later recording for the
        # same thread id cannot touch the handed-off list.
        assert profiler.events_for(7) == []
        profiler.on_barrier(7, 0x14, BarrierKind.FULL, 2, False, "f")
        assert len(events) == 1
