"""Engine-parametrized differential tests: each engine vs the reference oracle.

Each test runs once per engine and compares that engine's observables —
syscall return values, memory/shadow fingerprints, litmus outcomes,
campaign stats, crash identity, replay verdicts, fuel/steps accounting
and error messages — against a run on the reference oracle
(`tests/kir_reference.py`).  The ``decoded`` arm is the shipped engine's
equivalence proof; the ``reference`` arm is a determinism check, since
two oracle runs must agree too.  The module keeps the name it had while
a third, compiled tier existed, so its test IDs stay stable.
"""

import contextlib
import os

import pytest

from repro.config import KernelConfig
from repro.errors import ExecutionLimitExceeded, KernelCrash, KirError
from repro.fuzzer.fuzzer import OzzFuzzer
from repro.fuzzer.kcov import KCov
from repro.fuzzer.sti import resolve_args
from repro.fuzzer.templates import seed_inputs
from repro.kernel.kernel import Kernel, KernelImage
from repro.kir import Builder, Program
from repro.kir.function import Program as KirProgram
from repro.litmus.programs import standard_suite
from repro.machine import Machine
from repro.mem.memory import DATA_BASE
from repro.oemu.instrument import instrument_program
from repro.trace.replayer import CrashArtifact, replay_artifact
from tests.kir_reference import on_reference

SAMPLE_CRASH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "examples", "sample_crash.json"
)

#: The engines under test: the oracle and the shipped decoded engine.
TIERS = ("reference", "decoded")


def _on(tier: str):
    """Boot the machines constructed inside the block on ``tier``."""
    return on_reference() if tier == "reference" else contextlib.nullcontext()


@pytest.fixture(scope="module")
def image():
    return KernelImage(KernelConfig(snapshot_reset=False))


def _loop_program() -> Program:
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


class TestSeedInputs:
    def test_syscall_observables_identical(self, image):
        """Every seed STI, run to completion on the unobserved fast path:
        same retvals, memory world, shadow world and clock under both
        engines."""
        for sti in seed_inputs():
            worlds = {}
            for tier in TIERS:
                with _on(tier):
                    kernel = Kernel(image)
                retvals = []
                for call in sti.calls:
                    retvals.append(
                        kernel.run_syscall(call.name, resolve_args(call, retvals))
                    )
                worlds[tier] = (
                    tuple(retvals),
                    kernel.memory.fingerprint(),
                    kernel.shadow.fingerprint(),
                    kernel.clock.now,
                )
            assert worlds["decoded"] == worlds["reference"], sti


class TestLitmus:
    @pytest.mark.parametrize("test", standard_suite(), ids=lambda t: t.name)
    def test_round_robin_outcomes_identical(self, test):
        """Each litmus program, stepped round-robin under both engines,
        produces the same outcome tuple and final memory contents."""
        program, _ = instrument_program(KirProgram(list(test.functions)))

        def run(tier):
            with _on(tier):
                m = Machine(program, ncpus=len(test.functions))
            threads = [
                m.spawn(f.name, cpu=idx) for idx, f in enumerate(test.functions)
            ]
            for t in threads:
                m.oemu.thread_state(t.thread_id)  # pin window start at t=0
            pending = list(threads)
            while pending:
                for thread in list(pending):
                    if not m.interp.step(thread):
                        m.oemu.flush(thread.thread_id)
                        pending.remove(thread)
            return tuple(t.retval for t in threads), m.memory.fingerprint()

        outcomes = {tier: run(tier) for tier in TIERS}
        assert outcomes["decoded"] == outcomes["reference"]
        assert outcomes["reference"][0] in test.allowed


class TestReplay:
    @pytest.mark.parametrize("tier", TIERS)
    def test_sample_crash_replays_under_every_tier(self, tier):
        """The shipped artifact replays byte-for-byte on a fresh-booting
        image whichever engine runs it (replay verdicts diff the full
        event schedule, so ``ok`` means byte-identical)."""
        artifact = CrashArtifact.load(SAMPLE_CRASH)
        with _on(tier):
            verdict = replay_artifact(
                artifact,
                image=KernelImage(
                    KernelConfig(
                        patched=frozenset(artifact.reproducer.patched),
                        snapshot_reset=False,
                    )
                ),
            )
        assert verdict.ok, (tier, verdict.render())


class TestCampaign:
    def test_stats_and_crashes_identical(self):
        """Same seed, same iteration count: the decoded campaign is
        observationally equal to the oracle's campaign."""
        results = {}
        for tier in TIERS:
            with _on(tier):
                fuzzer = OzzFuzzer(KernelImage(KernelConfig()), seed=11)
                stats = fuzzer.run(30)
            results[tier] = (stats, frozenset(fuzzer.crashdb.unique_titles))
        assert results["decoded"] == results["reference"]
        assert results["reference"][0].tests_run > 0


class TestErrorParity:
    """Exceptions escaping an engine must match the oracle byte-for-byte:
    type, message, and fuel/steps at the throw point."""

    def _run(self, program, entry, tier, *, args=(), fuel=10**9, kcov=None):
        with _on(tier):
            m = Machine(program)
        m.kcov = kcov
        thread = m.interp.spawn(entry, args, fuel=fuel)
        try:
            m.interp.run(thread)
            outcome = ("ok", thread.retval)
        except (KirError, ExecutionLimitExceeded) as exc:
            outcome = (type(exc).__name__, str(exc))
        except KernelCrash as crash:
            outcome = (type(crash).__name__, crash.report.title, crash.report.inst_addr)
        return outcome, thread.steps, thread.fuel

    @pytest.mark.parametrize("tier", TIERS)
    def test_fuel_exhaustion_identical(self, tier):
        ref = self._run(_loop_program(), "spin", "reference", args=(10**9,), fuel=500)
        got = self._run(_loop_program(), "spin", tier, args=(10**9,), fuel=500)
        assert got == ref
        assert got[0][0] == "ExecutionLimitExceeded"

    @pytest.mark.parametrize("tier", TIERS)
    def test_undefined_register_identical(self, tier):
        b = Builder("oops")
        b.add(b.reg("ghost"), 1, dst=b.reg("x"))
        b.ret(b.reg("x"))
        program = Program([b.function()])
        ref = self._run(program, "oops", "reference")
        got = self._run(program, "oops", tier)
        assert got == ref
        assert got[0][0] == "KirError"
        assert "register %ghost undefined" in got[0][1]

    @pytest.mark.parametrize("tier", TIERS)
    def test_unknown_helper_identical(self, tier):
        b = Builder("callout")
        b.helper("no_such_helper", 1, dst=b.reg("r"))
        b.ret(b.reg("r"))
        program = Program([b.function()])
        ref = self._run(program, "callout", "reference")
        got = self._run(program, "callout", tier)
        assert got == ref
        assert got[0][0] == "KirError"
        assert "unknown helper" in got[0][1]

    @pytest.mark.parametrize("tier", TIERS)
    def test_stack_overflow_identical(self, tier):
        """Unbounded direct and indirect recursion hit the stack guard
        page at the same call, step and fuel under both engines, on the
        run-to-completion loop and (with kcov attached) on step().  The
        fuel budget is far above the guard page's few hundred steps."""
        b = Builder("rec")
        b.ret(b.call("rec"))
        direct = (Program([b.function()]), "rec", ())
        b = Builder("irec", params=["fp"])
        b.ret(b.icall("fp", "fp"))
        program = Program([b.function()])
        indirect = (program, "irec", (program.func_addr("irec"),))
        for program, entry, args in (direct, indirect):
            ref = self._run(program, entry, "reference", args=args, fuel=10_000)
            got = self._run(program, entry, tier, args=args, fuel=10_000)
            assert got == ref
            assert got[0][:2] == (
                "KernelCrash",
                f"BUG: stack guard page was hit in {entry}",
            )
            ref_kcov, kcov = KCov(), KCov()
            ref_observed = self._run(
                program, entry, "reference", args=args, fuel=10_000, kcov=ref_kcov
            )
            observed = self._run(program, entry, tier, args=args, fuel=10_000, kcov=kcov)
            assert observed == ref_observed == ref
            assert kcov.coverage_of(0) == ref_kcov.coverage_of(0)
