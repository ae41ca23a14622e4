"""Differential tests: the decoded engine vs the reference oracle.

The decoded closures (`repro.kir.decode`) and the boot-snapshot reset
(`snapshot_reset`) are pure optimizations — every observable (syscall
return values, memory/shadow contents, profiler event streams,
coverage, crash identity, ExecTrace event streams) must be identical to
the reference oracle (`tests/kir_reference.py`) running on fresh-booted
kernels.  These tests drive both over the same inputs and assert exactly
that; `tests/test_codegen_differential.py` adds the error paths.
"""

import os

import pytest

from repro.config import KernelConfig
from repro.fuzzer.fuzzer import OzzFuzzer
from repro.fuzzer.mti import run_mti
from repro.fuzzer.sti import profile_sti, resolve_args
from repro.fuzzer.templates import seed_inputs
from repro.kernel.kernel import Kernel, KernelImage
from repro.kir.function import Program
from repro.litmus.programs import standard_suite
from repro.machine import Machine
from repro.oemu.instrument import instrument_program
from repro.trace.recorder import TraceRecorder
from repro.trace.replayer import CrashArtifact, replay_artifact
from tests.kir_reference import on_reference

SAMPLE_CRASH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "examples", "sample_crash.json"
)

DECODED = KernelConfig()  # engine optimizations are the defaults
#: The oracle's kernels boot fresh for every test.
REFERENCE = KernelConfig(snapshot_reset=False)


@pytest.fixture(scope="module")
def decoded_image():
    return KernelImage(DECODED)


@pytest.fixture(scope="module")
def reference_image():
    return KernelImage(REFERENCE)


class TestSeedInputs:
    def test_profiles_identical(self, decoded_image, reference_image):
        """Every seed STI: same retvals, profiler events, coverage, crash."""
        for sti in seed_inputs():
            dec = profile_sti(decoded_image, sti)
            with on_reference():
                ref = profile_sti(reference_image, sti)
            assert dec.retvals == ref.retvals, sti
            assert dec.coverage == ref.coverage, sti
            assert (dec.crash is None) == (ref.crash is None), sti
            if dec.crash is not None:
                assert dec.crash.title == ref.crash.title, sti
            assert len(dec.profiles) == len(ref.profiles), sti
            for p_dec, p_ref in zip(dec.profiles, ref.profiles):
                assert p_dec.syscall == p_ref.syscall
                assert p_dec.retval == p_ref.retval
                # AccessEvent/BarrierEvent are frozen dataclasses with
                # value equality — the five-/three-tuple streams must
                # match element for element.
                assert p_dec.events == p_ref.events, (sti, p_dec.syscall)

    def test_memory_state_identical(self, decoded_image, reference_image):
        """After each seed STI the kernels' memory worlds are equal."""

        def world(image, sti):
            kernel = Kernel(image)
            retvals = []
            for call in sti.calls:
                retvals.append(kernel.run_syscall(call.name, resolve_args(call, retvals)))
            return (
                kernel.memory.fingerprint(),
                kernel.shadow.fingerprint(),
                kernel.clock.now,
            )

        for sti in seed_inputs():
            dec = world(decoded_image, sti)
            with on_reference():
                ref = world(reference_image, sti)
            assert dec == ref, sti


class TestLitmus:
    @pytest.mark.parametrize("test", standard_suite(), ids=lambda t: t.name)
    def test_round_robin_outcomes_identical(self, test):
        """Each litmus program, stepped round-robin under both engines,
        produces the same outcome tuple and final memory contents."""
        program, _ = instrument_program(Program(list(test.functions)))

        def run():
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

        dec_outcome, dec_mem = run()
        with on_reference():
            ref_outcome, ref_mem = run()
        assert dec_outcome == ref_outcome
        assert dec_mem == ref_mem
        assert dec_outcome in test.allowed


class TestTracedMTI:
    @pytest.fixture(scope="class")
    def crash_artifact(self, decoded_image):
        fuzzer = OzzFuzzer(decoded_image, seed=1)
        fuzzer.run(6)
        for rec in fuzzer.crashdb.records.values():
            if rec.artifact is not None and rec.artifact.reordered_insns:
                return rec.artifact
        pytest.fail("campaign found no OOO crash with an artifact")

    def test_event_streams_byte_identical(
        self, crash_artifact, decoded_image, reference_image
    ):
        """A recorded MTI emits the same ExecTrace stream on both engines."""
        rec_dec = TraceRecorder()
        res_dec = run_mti(decoded_image, crash_artifact.mti, trace=rec_dec)
        rec_ref = TraceRecorder()
        with on_reference():
            res_ref = run_mti(reference_image, crash_artifact.mti, trace=rec_ref)
        assert res_dec.crashed and res_ref.crashed
        assert res_dec.crash.title == res_ref.crash.title
        assert res_dec.steps == res_ref.steps
        assert rec_dec.schedule_dict()["events"] == rec_ref.schedule_dict()["events"]

    def test_sample_crash_replays_under_both_engines(self):
        """The shipped sample artifact still replays byte-for-byte, decoded
        (the artifact's own image — optimization defaults) and on the
        oracle (replay verdicts diff the full event schedule, so ``ok``
        means byte-identical)."""
        artifact = CrashArtifact.load(SAMPLE_CRASH)
        decoded = replay_artifact(artifact)
        assert decoded.ok, decoded.render()
        with on_reference():
            reference = replay_artifact(
                artifact,
                image=KernelImage(
                    KernelConfig(
                        patched=frozenset(artifact.reproducer.patched),
                        snapshot_reset=False,
                    )
                ),
            )
        assert reference.ok, reference.render()


class TestCampaign:
    def test_stats_and_crashes_identical(self):
        """Same seed, same iteration count: the optimized engine's
        campaign is observationally equal to the oracle's."""

        def campaign(config):
            fuzzer = OzzFuzzer(KernelImage(config), seed=11)
            stats = fuzzer.run(30)
            return stats, frozenset(fuzzer.crashdb.unique_titles)

        dec_stats, dec_titles = campaign(DECODED)
        with on_reference():
            ref_stats, ref_titles = campaign(REFERENCE)
        assert dec_stats == ref_stats
        assert dec_titles == ref_titles
        assert dec_stats.tests_run > 0
