"""Tests for KIRA: barrier lint, lock pairing and lint orchestration."""

import pytest

from repro.analysis.barriers import (
    LD,
    ST,
    candidate_addr_sets,
    function_candidates,
    ordering_summaries,
    static_reordering_candidates,
)
from repro.analysis.lint import lint_program, render_report
from repro.analysis.locks import check_lock_pairing
from repro.config import KernelConfig
from repro.errors import KirError
from repro.kernel import bugs
from repro.kernel.kernel import KernelImage
from repro.kir import Builder, Program


@pytest.fixture(scope="module")
def image():
    return KernelImage(KernelConfig(instrumented=False))


@pytest.fixture(scope="module")
def candidates(image):
    return static_reordering_candidates(image.plain_program)


# ---------------------------------------------------------------------------
# Table-driven acceptance: every seeded missing-barrier bug is statically
# visible as a reordering candidate of the right kind in its subsystem.
# ---------------------------------------------------------------------------

KIND_OF = {"S-S": ST, "L-L": LD}


@pytest.mark.parametrize(
    "bug_id", [b.bug_id for b in bugs.all_bugs()], ids=str
)
def test_seeded_bug_is_a_static_candidate(bug_id, image, candidates):
    """Zero executions: the lint's candidates cover every seeded bug."""
    spec = bugs.get(bug_id)
    want = KIND_OF[spec.reorder_type]
    kinds = {
        c.kind
        for c in candidates
        if image.function_owner.get(c.function) == spec.subsystem
    }
    assert want in kinds, (
        f"{bug_id}: no {want} candidate in subsystem {spec.subsystem}"
    )


def test_vlan_candidate_names_the_buggy_pair(image, candidates):
    """Spot-check precision: t4_vlan's victim pair is flagged exactly —
    the slot-pointer store vs the count store in sys_vlan_add."""
    vlan = [c for c in candidates if c.function == "sys_vlan_add"]
    assert len(vlan) == 1 and vlan[0].kind == ST


# ---------------------------------------------------------------------------
# Barrier lint unit tests on hand-built functions.
# ---------------------------------------------------------------------------

A, B = 0x1000, 0x2000  # two distinct global addresses


def finish(b):
    b.ret()
    return b.function()


class TestBarrierLint:
    def test_unordered_store_pair_is_candidate(self):
        b = Builder("f")
        b.store(A, 0, 1)
        b.store(B, 0, 1)
        cands = function_candidates(finish(b))
        assert [(c.kind, c.x_index, c.y_index) for c in cands] == [(ST, 0, 1)]

    def test_wmb_between_stores_orders(self):
        b = Builder("f")
        b.store(A, 0, 1)
        b.wmb()
        b.store(B, 0, 1)
        assert function_candidates(finish(b)) == []

    def test_release_store_later_is_ordered(self):
        b = Builder("f")
        b.store(A, 0, 1)
        b.store_release(B, 0, 1)
        assert function_candidates(finish(b)) == []

    def test_same_location_is_not_a_candidate(self):
        b = Builder("f")
        b.store(A, 0, 1)
        b.store(A, 0, 2)
        assert function_candidates(finish(b)) == []

    def test_rmb_between_loads_orders(self):
        b = Builder("f")
        b.load(A)
        b.rmb()
        b.load(B)
        assert function_candidates(finish(b)) == []

    def test_unordered_load_pair_is_candidate(self):
        b = Builder("f")
        b.load(A)
        b.load(B)
        cands = function_candidates(finish(b))
        assert [(c.kind, c.x_index, c.y_index) for c in cands] == [(LD, 0, 1)]

    def test_read_once_first_load_bounds_window(self):
        b = Builder("f")
        b.read_once(A)
        b.load(B)
        assert function_candidates(finish(b)) == []

    def test_alpha_rule_plain_address_dependency_is_candidate(self):
        # plain load feeding the second load's address: still reorderable
        # ("AND THEN THERE WAS ALPHA") because X is not annotated.
        b = Builder("f")
        p = b.load(A)
        b.load(p, 8)
        cands = function_candidates(finish(b))
        assert [(c.kind, c.x_index) for c in cands] == [(LD, 0)]

    def test_spin_lock_blocks_load_pair(self):
        b = Builder("f")
        b.load(A)
        b.helper_void("spin_lock", 0x3000)
        b.load(B)
        b.helper_void("spin_unlock", 0x3000)
        cands = function_candidates(finish(b))
        assert all(c.kind != LD for c in cands)

    def test_spin_unlock_blocks_store_pair(self):
        b = Builder("f")
        b.helper_void("spin_lock", 0x3000)
        b.store(A, 0, 1)
        b.helper_void("spin_unlock", 0x3000)
        b.store(B, 0, 1)
        cands = function_candidates(finish(b))
        assert all(c.kind != ST for c in cands)

    def test_branch_around_barrier_keeps_candidate(self):
        # wmb on one arm only: an unordered path remains.
        b = Builder("f", ["p"])
        skip = b.label("skip")
        b.store(A, 0, 1)
        b.beq("p", 0, skip)
        b.wmb()
        b.bind(skip)
        b.store(B, 0, 1)
        cands = function_candidates(finish(b))
        assert any(c.kind == ST for c in cands)

    def test_callee_summary_blocks_pair(self):
        # fence() does smp_wmb on every path, so calling it orders stores.
        fb = Builder("fence")
        fb.wmb()
        fence = finish(fb)
        b = Builder("f")
        b.store(A, 0, 1)
        b.call_void("fence")
        b.store(B, 0, 1)
        func = finish(b)
        program = Program([func, fence])
        summaries = ordering_summaries(program)
        assert ST in summaries["fence"]
        assert static_reordering_candidates(program) == []

    def test_candidate_addr_sets_uses_linked_addrs(self):
        b = Builder("f")
        b.store(A, 0, 1)
        b.store(B, 0, 1)
        func = finish(b)
        Program([func])  # linking assigns addresses
        addrs = candidate_addr_sets(function_candidates(func))
        assert addrs[ST] == {func.insns[0].addr, func.insns[1].addr}
        assert addrs[LD] == frozenset()


# ---------------------------------------------------------------------------
# Lock pairing.
# ---------------------------------------------------------------------------

LOCK = 0x3000


class TestLockPairing:
    def test_balanced_is_clean(self):
        b = Builder("f")
        b.helper_void("spin_lock", LOCK)
        b.store(A, 0, 1)
        b.helper_void("spin_unlock", LOCK)
        assert check_lock_pairing(finish(b)) == []

    def test_acquire_without_release(self):
        b = Builder("f")
        b.helper_void("spin_lock", LOCK)
        found = check_lock_pairing(finish(b))
        assert [f.kind for f in found] == ["acquire-no-release"]

    def test_release_without_acquire(self):
        b = Builder("f")
        b.helper_void("spin_unlock", LOCK)
        found = check_lock_pairing(finish(b))
        assert [f.kind for f in found] == ["release-without-acquire"]

    def test_double_acquire(self):
        b = Builder("f")
        b.helper_void("spin_lock", LOCK)
        b.helper_void("spin_lock", LOCK)
        b.helper_void("spin_unlock", LOCK)
        found = check_lock_pairing(finish(b))
        assert "double-acquire" in {f.kind for f in found}

    def test_leak_on_one_path_only(self):
        # early return inside the critical section: leak on that path.
        b = Builder("f", ["p"])
        out = b.label("out")
        b.helper_void("spin_lock", LOCK)
        b.beq("p", 0, out)
        b.helper_void("spin_unlock", LOCK)
        b.ret()
        b.bind(out)
        b.ret()
        found = check_lock_pairing(b.function())
        assert {f.kind for f in found} == {"acquire-no-release"}

    def test_distinct_locks_tracked_separately(self):
        b = Builder("f")
        b.helper_void("spin_lock", LOCK)
        b.helper_void("spin_lock", LOCK + 8)
        b.helper_void("spin_unlock", LOCK + 8)
        b.helper_void("spin_unlock", LOCK)
        assert check_lock_pairing(finish(b)) == []

    def test_trylock_guarded_release_is_clean(self):
        # if (spin_trylock(l)) { ...; spin_unlock(l); } — the release is
        # only reachable on the success path, so no finding.
        b = Builder("f")
        got = b.helper("spin_trylock", LOCK)
        out = b.label("out")
        b.beq(got, 0, out)
        b.store(A, 0, 1)
        b.helper_void("spin_unlock", LOCK)
        b.bind(out)
        assert check_lock_pairing(finish(b)) == []

    def test_trylock_inverted_branch_is_clean(self):
        # if (!spin_trylock(l)) return; ...; spin_unlock(l);
        b = Builder("f")
        got = b.helper("spin_trylock", LOCK)
        crit = b.label("crit")
        b.bne(got, 0, crit)
        b.ret()
        b.bind(crit)
        b.helper_void("spin_unlock", LOCK)
        found = check_lock_pairing(finish(b))
        assert found == []

    def test_trylock_unconditional_release_is_flagged(self):
        # releasing without testing the trylock result: on the failure
        # path this unlocks a lock that was never taken.
        b = Builder("f")
        b.helper("spin_trylock", LOCK)
        b.helper_void("spin_unlock", LOCK)
        found = check_lock_pairing(finish(b))
        assert [f.kind for f in found] == ["conditional-release"]

    def test_release_on_one_path_then_merged_release(self):
        # one arm of a diamond releases, the join releases again: the
        # second release only pairs with an acquire on the other arm.
        b = Builder("f", ["p"])
        join = b.label("join")
        b.helper_void("spin_lock", LOCK)
        b.beq("p", 0, join)
        b.helper_void("spin_unlock", LOCK)
        b.bind(join)
        b.helper_void("spin_unlock", LOCK)
        found = check_lock_pairing(finish(b))
        assert "conditional-release" in {f.kind for f in found}

    def test_trylock_success_path_leak(self):
        # trylock succeeds but nothing releases: the success path leaks.
        b = Builder("f")
        got = b.helper("spin_trylock", LOCK)
        out = b.label("out")
        b.beq(got, 0, out)
        b.store(A, 0, 1)
        b.bind(out)
        found = check_lock_pairing(finish(b))
        assert {f.kind for f in found} == {"acquire-no-release"}

    def test_builtin_kernel_is_balanced(self, image):
        for func in image.plain_program.functions.values():
            assert check_lock_pairing(func) == []


# ---------------------------------------------------------------------------
# Orchestration + strict mode.
# ---------------------------------------------------------------------------


class TestLintOrchestration:
    def test_report_shape_and_counts(self, image):
        report = lint_program(
            image.plain_program,
            image.function_owner,
            roots=image.syscall_roots(),
            regions=image.global_regions(),
        )
        counts = report.counts()
        assert counts["use-before-def"] == 0
        assert counts["lock-pairing"] == 0
        assert counts["missing-barrier"] == len(report.candidates) > 0
        assert counts["race-candidate"] == len(report.races) > 0
        payload = report.to_json_dict()
        assert payload["version"] == 2
        assert len(payload["findings"]) == len(report.findings)
        base_keys = {
            "check", "kind", "subsystem", "function", "index", "message",
        }
        for f in payload["findings"]:
            if f["check"] == "race-candidate":
                assert set(f) == base_keys | {"details"}
            else:
                assert set(f) == base_keys

    def test_races_flag_off_restores_v1_checks(self, image):
        report = lint_program(
            image.plain_program, image.function_owner, races=False
        )
        assert report.counts()["race-candidate"] == 0
        assert report.races == []

    def test_subsystem_filter(self, image):
        report = lint_program(
            image.plain_program, image.function_owner, subsystems=["vlan"]
        )
        assert report.findings
        assert {f.subsystem for f in report.findings} == {"vlan"}

    def test_render_mentions_counts(self, image):
        report = lint_program(
            image.plain_program, image.function_owner, subsystems=["vlan"]
        )
        text = render_report(report)
        assert "missing-barrier" in text and "sys_vlan_add" in text

    def test_strict_mode_builds_builtin_kernel(self):
        image = KernelImage(
            KernelConfig(instrumented=False, strict_lint=True)
        )
        assert image.lint_report is not None
        assert image.lint_report.by_check("lock-pairing") == []

    def test_strict_mode_rejects_lock_imbalance(self):
        from repro.kernel.subsystem import Subsystem

        def build(cfg, glob):
            b = Builder("sys_leaky")
            b.helper_void("spin_lock", glob["leaky_lock"])
            b.ret()
            return [b.function()]

        leaky = Subsystem(
            name="leaky", build=build, globals={"leaky_lock": 8}
        )
        with pytest.raises(KirError, match="strict lint"):
            KernelImage(
                KernelConfig(instrumented=False, strict_lint=True),
                subsystems=[leaky],
            )
        # without strict_lint the same image builds fine
        KernelImage(KernelConfig(instrumented=False), subsystems=[leaky])
