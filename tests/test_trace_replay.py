"""Record/replay acceptance tests (the ExecTrace deterministic-replay loop).

The headline property: a seeded-bug crash found by fuzzing produces a
schedule artifact that ``repro replay`` reproduces deterministically —
same oracle, same reordered instruction addresses, same event stream
byte-for-byte.
"""

import json

import pytest

from repro.config import KernelConfig
from repro.fuzzer.fuzzer import OzzFuzzer
from repro.kernel.kernel import KernelImage
from repro.trace.replayer import (
    ARTIFACT_KIND,
    ArtifactError,
    CrashArtifact,
    record_crash_artifact,
    replay_artifact,
)


@pytest.fixture(scope="module")
def image():
    return KernelImage(KernelConfig())


@pytest.fixture(scope="module")
def fuzzed(image):
    """A short campaign that finds seeded OOO bugs (deterministic seed)."""
    fuzzer = OzzFuzzer(image, seed=1)
    fuzzer.run(6)
    assert fuzzer.crashdb.records, "campaign found no crashes"
    return fuzzer


def ooo_record(fuzzed):
    """A fuzz-found record whose crash came from the reordered pair."""
    for rec in fuzzed.crashdb.records.values():
        if rec.artifact is not None and rec.artifact.reordered_insns:
            return rec
    pytest.fail("no OOO crash with an artifact was found")


class TestFuzzerIntegration:
    def test_first_crash_gets_an_artifact(self, fuzzed):
        rec = ooo_record(fuzzed)
        art = rec.artifact
        assert art.title == rec.title
        assert art.schedule["n_events"] > 0
        assert art.event_index is not None
        # The dedup'd report carries the schedule and the firing index.
        assert rec.first_report.schedule is art.schedule
        assert rec.first_report.event_index is not None
        assert "trace event index" in rec.first_report.render()

    def test_artifact_survives_crashdb_merge(self, fuzzed, image):
        from repro.fuzzer.triage import CrashDB

        other = CrashDB()
        merged = fuzzed.crashdb.merge(other)
        rec = ooo_record(fuzzed)
        assert merged.records[rec.title].artifact is rec.artifact

    def test_artifacts_can_be_disabled(self, image):
        fuzzer = OzzFuzzer(image, seed=1, record_artifacts=False)
        fuzzer.run(3)
        assert all(r.artifact is None for r in fuzzer.crashdb.records.values())


class TestDeterministicReplay:
    def test_fuzz_found_crash_replays_exactly(self, fuzzed, image):
        """Acceptance: fuzz -> artifact -> JSON round trip -> replay OK."""
        art = ooo_record(fuzzed).artifact
        loaded = CrashArtifact.from_json(art.to_json())
        assert loaded.to_json() == art.to_json()
        verdict = replay_artifact(loaded, image)
        assert verdict.ok, verdict.render()
        assert verdict.events_compared == len(art.schedule["events"])
        # Same oracle, same reordered instruction addresses.
        crash = verdict.result.crash
        assert crash.oracle == art.oracle
        assert tuple(crash.reordered_insns) == art.reordered_insns
        assert "byte-for-byte" in verdict.render()

    def test_save_and_load(self, fuzzed, tmp_path):
        art = ooo_record(fuzzed).artifact
        path = str(tmp_path / "crash.json")
        art.save(path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["kind"] == ARTIFACT_KIND
        assert payload["version"] == 1
        assert payload["schedule"]["events"]
        loaded = CrashArtifact.load(path)
        assert loaded == art

    def test_tampered_schedule_is_detected(self, fuzzed, image):
        """A forged event stream must not replay clean."""
        art = ooo_record(fuzzed).artifact
        payload = json.loads(art.to_json())
        payload["schedule"]["events"][0]["kind"] = "note"
        payload["schedule"]["events"][0] = {"kind": "note", "message": "forged", "i": 0}
        forged = CrashArtifact.from_json(json.dumps(payload))
        verdict = replay_artifact(forged, image)
        assert not verdict.ok
        assert any("diverge" in m for m in verdict.mismatches)

    def test_wrong_crash_identity_is_detected(self, fuzzed, image):
        art = ooo_record(fuzzed).artifact
        payload = json.loads(art.to_json())
        payload["crash"]["oracle"] = "lockdep"
        payload["crash"]["event_index"] = 0
        forged = CrashArtifact.from_json(json.dumps(payload))
        verdict = replay_artifact(forged, image)
        assert not verdict.ok
        assert any("oracle" in m for m in verdict.mismatches)

    def test_reject_non_artifact_json(self):
        with pytest.raises(ValueError, match="not a crash artifact"):
            CrashArtifact.from_json('{"kind": "something-else"}')
        with pytest.raises(ValueError, match="version"):
            CrashArtifact.from_json(
                json.dumps({"kind": ARTIFACT_KIND, "version": 99})
            )


class TestRecordingAPI:
    def test_record_requires_a_crash(self, image):
        from repro.fuzzer.mti import MTI
        from repro.fuzzer.sti import STI, Call

        rec = None
        sti = STI((Call("getpid", ()), Call("getpid", ())))
        from repro.fuzzer.hints import SchedulingHint, ST

        hint = SchedulingHint(
            barrier_type=ST, reorder_side=0, sched_addr=0, sched_hit=1,
            reorder=(), nreorder=0,
        )
        with pytest.raises(ValueError, match="did not crash"):
            record_crash_artifact(image, MTI(sti=sti, pair=(0, 1), hint=hint))

    def test_reproducer_record_artifact(self, fuzzed, image):
        rec = ooo_record(fuzzed)
        art = rec.reproducer.record_artifact(image)
        assert art.title == rec.title
        assert replay_artifact(art, image).ok

    def test_recording_is_stable(self, fuzzed, image):
        """Two recordings of the same MTI are identical artifacts."""
        rec = ooo_record(fuzzed)
        a = rec.reproducer.record_artifact(image)
        b = rec.reproducer.record_artifact(image)
        assert a.to_json() == b.to_json()


class TestPooledRecording:
    """The fuzzer records artifacts on its pooled kernel, reset to boot
    state; a fresh boot is the reference each recording must match."""

    @pytest.mark.parametrize("seed", range(1, 17))
    def test_pool_recordings_equal_fresh_boot_recordings(self, seed):
        from repro.campaign_api import CampaignSpec, run_campaign
        from repro.fuzzer.parallel import campaign_image

        spec = CampaignSpec(iterations=40, seed=seed)
        result = run_campaign(spec)
        image = campaign_image(spec)
        artifacts = [
            r.artifact for r in result.crashdb.records.values() if r.artifact
        ]
        assert artifacts
        for art in artifacts:
            fresh = record_crash_artifact(image, art.mti)
            assert fresh.to_json() == art.to_json(), art.title
            verdict = replay_artifact(art, image)
            assert verdict.ok, verdict.render()

    def test_next_acquire_detaches_the_recorder(self, fuzzed, image):
        from repro.kernel.kernel import KernelPool
        from repro.trace.sink import NULL_SINK

        pool = KernelPool(image)
        art = ooo_record(fuzzed).artifact
        recorded = record_crash_artifact(image, art.mti, pool=pool)
        assert recorded.to_json() == art.to_json()
        kernel = pool.acquire()
        assert kernel.trace is NULL_SINK
        assert kernel.oemu.trace is NULL_SINK
        assert not kernel.interp._trace.active


class TestArtifactErrors:
    """Garbage in must produce :class:`ArtifactError`, never a raw
    ``KeyError``/``TypeError`` traceback — artifacts travel over HTTP
    and the CLI now, so malformed input is an expected condition."""

    def test_garbage_is_artifact_error(self):
        with pytest.raises(ArtifactError, match="invalid JSON"):
            CrashArtifact.from_json("{definitely not json")

    def test_non_object_payload(self):
        with pytest.raises(ArtifactError, match="expected a JSON object"):
            CrashArtifact.from_json("[1, 2, 3]")

    def test_wrong_kind_names_both_kinds(self):
        with pytest.raises(ArtifactError, match=ARTIFACT_KIND):
            CrashArtifact.from_json('{"kind": "something-else"}')

    def test_future_version_suggests_upgrade(self):
        with pytest.raises(ArtifactError, match="newer than this tool"):
            CrashArtifact.from_json(
                json.dumps({"kind": ARTIFACT_KIND, "version": 99})
            )

    def test_old_or_junk_version_has_no_upgrade_hint(self):
        with pytest.raises(ArtifactError) as excinfo:
            CrashArtifact.from_json(
                json.dumps({"kind": ARTIFACT_KIND, "version": "one"})
            )
        assert "newer than this tool" not in str(excinfo.value)

    def test_missing_field_is_named(self, fuzzed):
        payload = json.loads(ooo_record(fuzzed).artifact.to_json())
        del payload["crash"]["title"]
        with pytest.raises(ArtifactError, match="missing field 'title'"):
            CrashArtifact.from_json(json.dumps(payload))

    def test_artifact_error_is_a_value_error(self):
        # `repro replay` and older call sites catch ValueError.
        assert issubclass(ArtifactError, ValueError)
