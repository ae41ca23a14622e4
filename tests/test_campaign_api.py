"""Tests for the unified campaign API and sharded parallel execution."""

import json
import os

import pytest

from repro.campaign_api import (
    CampaignResult,
    CampaignSpec,
    SEED_STRIDE,
    resume_campaign,
    run_campaign,
    spec_from_dict,
    spec_to_dict,
)
from repro.errors import ConfigError
from repro.fuzzer.fuzzer import FuzzStats
from repro.fuzzer.supervisor import MANIFEST_NAME
from repro.fuzzer.triage import CrashDB
from repro.oracles.report import CrashReport


@pytest.fixture(scope="module")
def serial_result():
    return run_campaign(CampaignSpec(iterations=24, seed=1, jobs=1))


@pytest.fixture(scope="module")
def sharded_result():
    return run_campaign(CampaignSpec(iterations=24, seed=1, jobs=2))


class TestCampaignSpec:
    def test_shard_seed_derivation(self):
        spec = CampaignSpec(seed=7, jobs=3)
        assert [spec.shard_seed(k) for k in range(3)] == [
            7 * SEED_STRIDE,
            7 * SEED_STRIDE + 1,
            7 * SEED_STRIDE + 2,
        ]

    def test_shard_iterations_partition_budget(self):
        spec = CampaignSpec(iterations=10, jobs=4)
        parts = spec.shard_iterations()
        assert sum(parts) == 10 and parts == (3, 3, 2, 2)

    def test_patched_normalized(self):
        spec = CampaignSpec(patched=("b", "a", "b"))
        assert spec.patched == ("a", "b")

    def test_validation(self):
        with pytest.raises(ConfigError):
            CampaignSpec(jobs=0)
        with pytest.raises(ConfigError):
            CampaignSpec(iterations=-1)
        with pytest.raises(ConfigError):
            CampaignSpec(time_budget=-0.1)


class TestRemovedEngineKeys:
    def test_legacy_engine_keys_ignored(self, tmp_path):
        """Specs written before the engine knob was removed carry
        ``engine`` and ``decoded_dispatch``: they load as the same spec,
        and a checkpoint holding them resumes to the clean run."""
        d = str(tmp_path / "ckpt")
        spec = CampaignSpec(iterations=8, seed=2, batch_size=4, checkpoint_dir=d)
        removed = {"engine": "auto", "decoded_dispatch": False}
        assert spec_from_dict({**spec_to_dict(spec), **removed}) == spec

        clean = run_campaign(spec)
        path = os.path.join(d, MANIFEST_NAME)
        with open(path) as fh:
            manifest = json.load(fh)
        manifest["spec"].update(removed)
        manifest["completed"] = manifest["completed"][:1]  # resume re-runs one
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        assert resume_campaign(d) == clean


class TestSerialParallelParity:
    def test_same_bug_id_set(self, serial_result, sharded_result):
        """A sharded campaign covers the same seed corpus, so at the same
        total budget it finds the same bug-id set as the serial run."""
        assert set(sharded_result.found_bug_ids) == set(serial_result.found_bug_ids)
        assert len(serial_result.found_table3) == 11

    def test_deterministic_per_shard(self):
        spec = CampaignSpec(iterations=24, seed=1, jobs=2)
        a, b = run_campaign(spec), run_campaign(spec)
        assert a.found_bug_ids == b.found_bug_ids
        assert a.crashes == b.crashes
        assert a.stats == b.stats
        assert [s.tests_run for s in a.shards] == [s.tests_run for s in b.shards]

    def test_shard_breakdown(self, sharded_result):
        assert len(sharded_result.shards) == 2
        assert [s.shard for s in sharded_result.shards] == [0, 1]
        assert sum(s.iterations for s in sharded_result.shards) == 24
        assert sum(s.tests_run for s in sharded_result.shards) == (
            sharded_result.stats.tests_run
        )

    def test_merged_coverage_is_union_not_sum(self, sharded_result):
        per_shard = [s.coverage for s in sharded_result.shards]
        assert sharded_result.stats.coverage <= sum(per_shard)
        assert sharded_result.stats.coverage >= max(per_shard)

    def test_serial_runs_in_process(self, serial_result):
        # jobs=1 keeps the full merged crash database (with reproducers).
        assert serial_result.crashdb is not None
        assert serial_result.spec.jobs == 1

    def test_time_budget_zero_runs_nothing(self):
        result = run_campaign(CampaignSpec(iterations=5, time_budget=0.0))
        assert result.stats.tests_run == 0


class TestFuzzStatsMerge:
    def test_associative(self):
        a = FuzzStats(stis_run=1, mtis_run=2, hints_computed=3, crashes=1)
        b = FuzzStats(stis_run=4, mtis_run=5, hangs=2, corpus_size=3)
        c = FuzzStats(stis_run=7, coverage=9, crashes=2)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_counters_sum(self):
        a = FuzzStats(stis_run=2, mtis_run=10)
        b = FuzzStats(stis_run=3, mtis_run=20)
        merged = a.merge(b)
        assert merged.tests_run == 35


def _db(*hits):
    """Build a CrashDB from (title, test_index) pairs."""
    db = CrashDB()
    for title, idx in hits:
        db.add(CrashReport(title=title, oracle="kasan", function="f"), idx)
    return db


def _shape(db):
    return {
        t: (r.count, r.first_test_index, r.bug_id) for t, r in db.records.items()
    }


class TestCrashDBMerge:
    def test_counts_sum_and_min_attribution(self):
        a = _db(("T", 9), ("T", 12), ("U", 3))
        b = _db(("T", 4))
        merged = a.merge(b)
        assert merged.records["T"].count == 3
        assert merged.records["T"].first_test_index == 4  # min across shards
        assert merged.records["U"].first_test_index == 3

    def test_pure(self):
        a, b = _db(("T", 5)), _db(("T", 2))
        a.merge(b)
        assert a.records["T"].first_test_index == 5  # inputs untouched
        assert b.records["T"].count == 1

    def test_associative(self):
        a = _db(("T", 9), ("U", 1))
        b = _db(("T", 4), ("V", 8))
        c = _db(("T", 6), ("U", 2), ("V", 3))
        assert _shape(a.merge(b).merge(c)) == _shape(a.merge(b.merge(c)))

    def test_bug_id_mapping_survives(self):
        title = "BUG: unable to handle kernel NULL pointer dereference in pipe_read"
        merged = _db((title, 7)).merge(_db((title, 2)))
        assert merged.records[title].bug_id == "t4_watch_queue"
        assert merged.found_bug_ids() == ["t4_watch_queue"]


class TestJsonRoundTrip:
    def test_lossless(self, sharded_result):
        restored = CampaignResult.from_json(sharded_result.to_json())
        assert restored == sharded_result
        assert restored.spec == sharded_result.spec
        assert restored.crashes == sharded_result.crashes
        assert restored.shards == sharded_result.shards
        assert restored.seconds == sharded_result.seconds

    def test_crashdb_not_serialized(self, serial_result):
        restored = CampaignResult.from_json(serial_result.to_json())
        assert restored.crashdb is None
        assert restored == serial_result  # crashdb excluded from equality

    def test_rejects_unknown_version(self, serial_result):
        import json

        payload = json.loads(serial_result.to_json())
        payload["version"] = 999
        with pytest.raises(ValueError):
            CampaignResult.from_json(json.dumps(payload))

    def test_summary_text(self, serial_result):
        text = serial_result.summary()
        assert "unique crash titles" in text
        assert "[t4_watch_queue]" in text
