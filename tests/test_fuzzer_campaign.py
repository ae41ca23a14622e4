"""End-to-end fuzzing campaign tests (paper Figure 6 / §6.1)."""

import pytest

from repro.campaign_api import CampaignSpec, run_campaign
from repro.config import KernelConfig
from repro.fuzzer import FuzzStats, OzzFuzzer
from repro.fuzzer.sti import STI, Call, ResourceRef, profile_sti
from repro.kernel import bugs
from repro.kernel.kernel import KernelImage

GUARD_PAGE_TITLE = "BUG: stack guard page was hit in tls_setsockopt"


@pytest.fixture(scope="module")
def buggy_image():
    return KernelImage(KernelConfig())


@pytest.fixture(scope="module")
def seed_campaign(buggy_image):
    fuzzer = OzzFuzzer(buggy_image, seed=1)
    fuzzer.run(22)  # one pass over the seed corpus
    return fuzzer


class TestSeedCampaign:
    def test_finds_all_table3_bugs(self, seed_campaign):
        assert len(seed_campaign.crashdb.found_table3()) == 11

    def test_finds_all_reproducible_table4_bugs(self, seed_campaign):
        found = set(seed_campaign.crashdb.found_table4())
        expected = {b.bug_id for b in bugs.table4_bugs() if b.reproducible}
        assert found == expected

    def test_sbitmap_not_found(self, seed_campaign):
        assert "t4_sbitmap" not in seed_campaign.crashdb.found_bug_ids()

    def test_coverage_and_corpus_grow(self, seed_campaign):
        assert seed_campaign.stats.coverage > 300
        assert seed_campaign.stats.corpus_size > 10

    def test_crash_reports_carry_ooo_context(self, seed_campaign):
        for rec in seed_campaign.crashdb.records.values():
            if rec.bug_id and rec.bug_id.startswith("t3"):
                report = rec.first_report
                assert report.hypothetical_barrier is not None
                assert report.reordered_insns

    def test_deterministic_given_seed(self, buggy_image):
        a = OzzFuzzer(buggy_image, seed=5)
        b = OzzFuzzer(buggy_image, seed=5)
        a.run(6)
        b.run(6)
        assert a.crashdb.unique_titles == b.crashdb.unique_titles
        assert a.stats.mtis_run == b.stats.mtis_run


class TestRunawayRecursion:
    """A second ``tls_init`` makes ``tls_setsockopt`` dispatch to itself;
    the recursion ends at the stack guard page, as it would in Linux."""

    def test_profile_ends_at_guard_page(self, buggy_image):
        ret0 = ResourceRef(0)
        sti = STI(
            (
                Call("socket"),
                Call("tls_init", (ret0,)),
                Call("tls_init", (ret0,)),
                Call("setsockopt", (ret0,)),
            )
        )
        result = profile_sti(buggy_image, sti)
        assert result.crash.title == GUARD_PAGE_TITLE
        assert result.crash.oracle == "fault"
        assert result.crash.function == "tls_setsockopt"
        assert len(result.retvals) == 3

    def test_table3_spec_outcome_unchanged(self):
        """The Table 3 spec (seed 1 holds the runaway) keeps its stats,
        bugs and titles; only the runaway's title is the guard page's."""
        result = run_campaign(CampaignSpec(iterations=40, seed=1))
        assert result.stats == FuzzStats(
            stis_run=40,
            mtis_run=104,
            hints_computed=104,
            corpus_size=29,
            coverage=495,
            crashes=47,
            hangs=3,
        )
        assert len(result.found_bug_ids) == 20
        assert len(result.found_table3) == 11
        titles = result.crashdb.unique_titles
        assert len(titles) == 22
        assert titles.count(GUARD_PAGE_TITLE) == 1
        assert not [t for t in titles if t.startswith("HANG: setsockopt")]


class TestPatchedCampaign:
    def test_fully_patched_kernel_is_clean(self):
        image = KernelImage(KernelConfig(patched=frozenset(bugs.all_bug_ids())))
        fuzzer = OzzFuzzer(image, seed=1)
        fuzzer.run(22)
        assert fuzzer.crashdb.unique_titles == []

    def test_partially_patched_kernel_finds_the_rest(self):
        patched = {"t3_rds_xmit", "t3_tls_setsockopt", "t4_watch_queue"}
        image = KernelImage(KernelConfig(patched=frozenset(patched)))
        fuzzer = OzzFuzzer(image, seed=1)
        fuzzer.run(22)
        found = set(fuzzer.crashdb.found_bug_ids())
        assert not (found & patched)
        assert "t3_gsm_dlci" in found  # unpatched bugs still there


class TestGenerativePhase:
    def test_mutation_phase_keeps_finding(self, buggy_image):
        """After the seeds are exhausted the fuzzer generates/mutates and
        keeps triggering bugs rather than stalling."""
        fuzzer = OzzFuzzer(buggy_image, seed=11)
        fuzzer.run(40)  # 22 seeds + 18 generated/mutated
        assert fuzzer.stats.stis_run == 40
        assert fuzzer.stats.mtis_run > 40
        assert len(fuzzer.crashdb.found_table3()) == 11

    def test_no_seed_mode_runs(self, buggy_image):
        fuzzer = OzzFuzzer(buggy_image, seed=2, use_seeds=False)
        fuzzer.run(10)
        assert fuzzer.stats.stis_run == 10
