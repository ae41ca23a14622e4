"""Tests for the campaign supervisor (fault tolerance, checkpoint/resume).

The determinism contract under test: a campaign whose workers hang, die
or raise mid-run must — after supervised kill/restart with the same
re-derived shard seeds — produce a :class:`CampaignResult` *equal* to an
unfaulted run of the same spec (telemetry fields are excluded from
equality precisely so this holds).
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.campaign_api import (
    CampaignSpec,
    QuarantinedInput,
    resume_campaign,
    run_campaign,
    spec_to_dict,
)
from repro.errors import ConfigError
from repro.fuzzer.parallel import merge_shards, run_batch
from repro.fuzzer.supervisor import (
    CHECKPOINT_VERSION,
    FAULT_ENV,
    MANIFEST_NAME,
    FaultPlan,
    faults_from_env,
    load_checkpoint,
    run_supervised,
    write_checkpoint,
)
from repro.trace import TraceRecorder


def small_spec(**overrides):
    base = dict(iterations=8, jobs=2, use_seeds=True, shard_timeout=2.0)
    base.update(overrides)
    return CampaignSpec(**base)


def manifest_text(drop=(), **overrides):
    """A hand-written v2 manifest (no batch completed unless overridden)."""
    manifest = {
        "version": CHECKPOINT_VERSION,
        "kind": "ozz-campaign-checkpoint",
        "spec": spec_to_dict(small_spec()),
        "assignments": [],
        "completed": [],
        "quarantined": [],
        "retries": [],
        "failed": [],
        "interrupted": False,
    }
    manifest.update(overrides)
    for key in drop:
        del manifest[key]
    return json.dumps(manifest)


#: Damaged checkpoint directories: the files in them, and the file the
#: ConfigError must name (None: the directory has no manifest at all).
DAMAGED_CHECKPOINTS = {
    "no-manifest": ({}, None),
    "other-kind": ({MANIFEST_NAME: '{"kind": "something-else"}'}, MANIFEST_NAME),
    "not-an-object": ({MANIFEST_NAME: "[1, 2]"}, MANIFEST_NAME),
    "version-1": ({MANIFEST_NAME: manifest_text(version=1)}, MANIFEST_NAME),
    "future-version": ({MANIFEST_NAME: manifest_text(version=3)}, MANIFEST_NAME),
    "truncated-manifest": ({MANIFEST_NAME: manifest_text()[:60]}, MANIFEST_NAME),
    "no-spec": ({MANIFEST_NAME: manifest_text(drop=("spec",))}, MANIFEST_NAME),
    "no-completed": ({MANIFEST_NAME: manifest_text(drop=("completed",))}, MANIFEST_NAME),
    "mistyped-spec": ({MANIFEST_NAME: manifest_text(spec=7)}, MANIFEST_NAME),
    "mistyped-completed": ({MANIFEST_NAME: manifest_text(completed=5)}, MANIFEST_NAME),
    "mistyped-retries": ({MANIFEST_NAME: manifest_text(retries=[1])}, MANIFEST_NAME),
    "missing-batch-file": (
        {MANIFEST_NAME: manifest_text(completed=[0])}, "shard-000.json"
    ),
    "undecodable-batch-file": (
        {MANIFEST_NAME: manifest_text(completed=[0]), "shard-000.json": '{"sh'},
        "shard-000.json",
    ),
    "incomplete-batch-file": (
        {MANIFEST_NAME: manifest_text(completed=[0]), "shard-000.json": "{}"},
        "shard-000.json",
    ),
}


@pytest.fixture(scope="module")
def clean_result():
    """One unfaulted supervised run every fault test compares against."""
    return run_supervised(small_spec())


class TestCleanRuns:
    def test_supervised_matches_inprocess_merge(self, clean_result):
        spec = small_spec()
        shards = [run_batch(spec, b) for b in spec.batches()]
        expected = merge_shards(spec, shards, seconds=0.0)
        assert clean_result == expected

    def test_run_campaign_routes_robustness_knobs_through_supervisor(self):
        spec = CampaignSpec(iterations=4, jobs=1, use_seeds=True, shard_timeout=2.0)
        assert spec.supervised
        result = run_campaign(spec)
        assert result.stats.tests_run > 0
        assert result.failed_shards == ()

    def test_no_telemetry_on_clean_run(self, clean_result):
        assert clean_result.retries == ()
        assert clean_result.quarantined == ()
        assert clean_result.failed_shards == ()
        assert not clean_result.interrupted


class TestFaultRecovery:
    def test_death_recovers_deterministically(self, clean_result):
        result = run_supervised(
            small_spec(), faults=(FaultPlan(shard=1, iteration=1, kind="die"),)
        )
        assert result == clean_result
        assert [r.shard for r in result.retries] == [1]
        assert "died" in result.retries[0].reason

    def test_hang_recovers_deterministically(self, clean_result):
        result = run_supervised(
            small_spec(), faults=(FaultPlan(shard=1, iteration=2, kind="hang"),)
        )
        assert result == clean_result
        assert result.retries[0].reason == "hung"
        assert result.retries[0].iteration == 2

    def test_worker_exception_recovers_deterministically(self, clean_result):
        result = run_supervised(
            small_spec(), faults=(FaultPlan(shard=0, iteration=2, kind="error"),)
        )
        assert result == clean_result
        assert "RuntimeError" in result.retries[0].reason

    def test_exhausted_retries_merge_survivors(self, clean_result):
        """The old Pool.map behaviour — one bad worker discarding every
        other shard's finished work — must not come back."""
        result = run_supervised(
            small_spec(max_retries=0),
            faults=(FaultPlan(shard=1, iteration=0, kind="die", persistent=True),),
        )
        assert len(result.failed_shards) == 1
        assert result.failed_shards[0].shard == 1
        # Shard 0's work survived the other shard's permanent failure.
        spec = small_spec()
        survivor = run_batch(spec, spec.batches()[0])
        assert result.stats.tests_run == survivor.stats.tests_run
        assert {s.shard for s in result.shards} == {0}

    def test_persistent_death_quarantines_input(self):
        result = run_supervised(
            small_spec(max_retries=4),
            faults=(FaultPlan(shard=1, iteration=1, kind="die", persistent=True),),
        )
        assert result.quarantined == (
            QuarantinedInput(shard=1, iteration=1, deaths=2),
        )
        assert result.failed_shards == ()  # quarantine unblocked the shard
        assert len(result.retries) == 2
        # The quarantined iteration was skipped, so shard 1 ran one
        # fewer input than its clean twin.
        spec = small_spec()
        clean1 = run_batch(spec, spec.batches()[1])
        shard1 = [s for s in result.shards if s.shard == 1][0]
        assert shard1.tests_run < clean1.stats.tests_run


class TestCheckpointResume:
    def test_kill_at_checkpoint_then_resume_equals_clean(self, tmp_path, clean_result):
        d = str(tmp_path / "ckpt")
        spec = small_spec(
            checkpoint_dir=d, checkpoint_every=2, max_retries=0
        )
        first = run_supervised(
            spec, faults=(FaultPlan(shard=1, iteration=3, kind="die"),)
        )
        assert [f.shard for f in first.failed_shards] == [1]
        assert os.path.exists(os.path.join(d, MANIFEST_NAME))
        assert os.path.exists(os.path.join(d, "shard-000.json"))

        resumed = resume_campaign(d)
        # Same crash set, stats and per-shard outcomes as a never-faulted
        # campaign (spec differs by checkpoint_dir, so compare the parts).
        assert resumed.stats == clean_result.stats
        assert resumed.crashes == clean_result.crashes
        assert resumed.found_bug_ids == clean_result.found_bug_ids
        assert resumed.shards == clean_result.shards
        assert resumed.failed_shards == ()

    def test_completed_shards_load_without_rerun(self, tmp_path):
        d = str(tmp_path / "ckpt")
        spec = small_spec(checkpoint_dir=d)
        run_supervised(spec)
        state = load_checkpoint(d)
        assert sorted(state.completed) == [0, 1]
        resumed = run_supervised(state.spec, resume_state=state)
        assert [s.shard for s in resumed.shards] == [0, 1]

    def test_manifest_schema(self, tmp_path):
        d = str(tmp_path / "ckpt")
        run_supervised(small_spec(checkpoint_dir=d))
        with open(os.path.join(d, MANIFEST_NAME)) as fh:
            manifest = json.load(fh)
        assert manifest["version"] == CHECKPOINT_VERSION
        assert manifest["kind"] == "ozz-campaign-checkpoint"
        assert manifest["completed"] == [0, 1]
        assert manifest["interrupted"] is False

    @pytest.mark.parametrize("case", sorted(DAMAGED_CHECKPOINTS))
    def test_load_rejects_non_checkpoint(self, tmp_path, case):
        files, named = DAMAGED_CHECKPOINTS[case]
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        with pytest.raises(ConfigError) as info:
            load_checkpoint(str(tmp_path))
        if named is not None:
            assert os.path.join(str(tmp_path), named) in str(info.value)

    def test_resume_appends_to_the_claim_log(self, tmp_path):
        d = str(tmp_path / "ckpt")
        spec = small_spec(checkpoint_dir=d, max_retries=0)
        first = run_supervised(
            spec, faults=(FaultPlan(shard=1, iteration=1, kind="die"),)
        )
        assert [f.shard for f in first.failed_shards] == [1]
        first_claims = list(load_checkpoint(d).assignments)
        assert sorted(c["batch"] for c in first_claims) == [0, 1]
        resume_campaign(d)
        with open(os.path.join(d, MANIFEST_NAME)) as fh:
            claims = json.load(fh)["assignments"]
        assert claims == first_claims + [{"batch": 1, "attempt": 0, "worker": 0}]

    def test_resume_preserves_quarantine(self, tmp_path):
        d = str(tmp_path / "ckpt")
        spec = small_spec(checkpoint_dir=d, max_retries=4)
        first = run_supervised(
            spec,
            faults=(FaultPlan(shard=1, iteration=1, kind="die", persistent=True),),
        )
        assert first.quarantined
        state = load_checkpoint(d)
        assert state.quarantined == first.quarantined


class TestInterruption:
    def test_stop_when_merges_partials(self):
        spec = small_spec(iterations=16, checkpoint_every=2)

        def shard0_done_shard1_partial(states):
            return states[0].result is not None and states[1].partial is not None

        result = run_supervised(
            spec,
            faults=(FaultPlan(shard=1, iteration=5, kind="hang"),),
            stop_when=shard0_done_shard1_partial,
        )
        assert result.interrupted
        by_shard = {s.shard: s for s in result.shards}
        assert by_shard[0].iterations == 8  # completed its slice
        assert 0 < by_shard[1].iterations < 8  # merged from a partial

    def test_sigint_checkpoints_and_merges_partial(self, tmp_path):
        """A real SIGINT mid-campaign exits cleanly with a resumable
        checkpoint (run in a subprocess so the signal stays contained)."""
        d = str(tmp_path / "ckpt")
        script = textwrap.dedent(
            """
            import sys
            from repro.campaign_api import CampaignSpec
            from repro.fuzzer.supervisor import FaultPlan, run_supervised

            spec = CampaignSpec(
                iterations=400, jobs=2, use_seeds=True,
                checkpoint_dir=sys.argv[1], checkpoint_every=2,
            )
            result = run_supervised(
                spec, faults=(FaultPlan(shard=1, iteration=6, kind="hang"),)
            )
            print("INTERRUPTED", result.interrupted)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, d],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        manifest = os.path.join(d, MANIFEST_NAME)
        deadline = time.monotonic() + 60
        while not os.path.exists(manifest):
            assert time.monotonic() < deadline, "no checkpoint before timeout"
            assert proc.poll() is None, proc.communicate()[1]
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert "INTERRUPTED True" in out
        state = load_checkpoint(d)
        assert state.interrupted


class TestFaultPlumbing:
    def test_faults_from_env_parsing(self):
        plans = faults_from_env("die:1:3,hang:0:2:persistent")
        assert plans == (
            FaultPlan(shard=1, iteration=3, kind="die"),
            FaultPlan(shard=0, iteration=2, kind="hang", persistent=True),
        )
        assert faults_from_env("") == ()

    def test_faults_from_env_rejects_garbage(self):
        with pytest.raises(ConfigError):
            faults_from_env("die:1")
        with pytest.raises(ConfigError):
            faults_from_env("explode:1:3")

    def test_env_var_reaches_supervisor(self, monkeypatch, clean_result):
        monkeypatch.setenv(FAULT_ENV, "die:1:1")
        result = run_supervised(small_spec())
        assert result == clean_result
        assert [r.shard for r in result.retries] == [1]


class TestTelemetryEvents:
    def test_supervisor_emits_trace_events(self):
        sink = TraceRecorder(capacity=4096)
        run_supervised(
            small_spec(),
            faults=(FaultPlan(shard=1, iteration=1, kind="die"),),
            sink=sink,
        )
        kinds = [e.kind for e in sink.events()]
        assert kinds.count("shard-start") == 3  # 2 launches + 1 retry
        assert "shard-retry" in kinds
        assert "shard-heartbeat" in kinds

    def test_checkpoint_event(self, tmp_path):
        sink = TraceRecorder(capacity=4096)
        run_supervised(small_spec(checkpoint_dir=str(tmp_path)), sink=sink)
        kinds = [e.kind for e in sink.events()]
        assert "checkpoint" in kinds


class TestSpecValidation:
    def test_bad_robustness_knobs_rejected(self):
        with pytest.raises(ConfigError):
            CampaignSpec(iterations=4, shard_timeout=0.0)
        with pytest.raises(ConfigError):
            CampaignSpec(iterations=4, max_retries=-1)
        with pytest.raises(ConfigError):
            CampaignSpec(iterations=4, checkpoint_every=0)

    def test_spec_json_roundtrip_includes_robustness_knobs(self):
        spec = small_spec(checkpoint_dir="/tmp/x", checkpoint_every=5, max_retries=7)
        result = run_supervised(spec)
        again = type(result).from_json(result.to_json())
        assert again.spec == spec

    def test_write_checkpoint_is_atomic(self, tmp_path):
        # No .tmp litter after a write (atomic rename completed).
        spec = small_spec(checkpoint_dir=str(tmp_path))
        run_supervised(spec)
        assert not [p for p in os.listdir(str(tmp_path)) if p.endswith(".tmp")]
