"""Unit tests for the engine counter telemetry.

Covers the engine_counters round-trips through checkpoint batch
payloads, the worker-pool wire and campaign JSON.
"""

import json

from repro.campaign_api import CampaignResult, CampaignSpec, run_campaign
from repro.fuzzer.fuzzer import FuzzStats
from repro.fuzzer.kcov import CoverageMap
from repro.fuzzer.parallel import ShardResult
from repro.fuzzer.triage import CrashDB
from repro.oemu.profiler import EngineCounters


class TestCounters:
    def test_diff_is_delta_over_baseline(self):
        c = EngineCounters()
        base = c.snapshot()
        c.boots += 2
        c.prefix_hits += 1
        delta = c.diff(base)
        assert delta["boots"] == 2
        assert delta["prefix_hits"] == 1
        assert delta["resets"] == 0

    def test_merge_sums_fields(self):
        a = EngineCounters()
        a.calls_skipped = 3
        a.merge({"calls_skipped": 4, "resets": 1, "not_a_field": 9})
        assert a.calls_skipped == 7
        assert a.resets == 1


class TestConfigRoundTrip:
    def test_shard_result_counters_round_trip(self):
        shard = ShardResult(
            shard=0, seed=1, iterations=2, stats=FuzzStats(),
            crashdb=CrashDB(), coverage=CoverageMap(), seconds=0.1,
            engine_counters={"boots": 1, "prefix_hits": 3},
        )
        back = ShardResult.from_json_dict(shard.to_json_dict())
        assert back.engine_counters == {"boots": 1, "prefix_hits": 3}

    def test_shard_result_reads_legacy_payload(self):
        """Older checkpoints have no engine_counters key."""
        shard = ShardResult(
            shard=0, seed=1, iterations=2, stats=FuzzStats(),
            crashdb=CrashDB(), coverage=CoverageMap(), seconds=0.1,
        )
        payload = shard.to_json_dict()
        del payload["engine_counters"]
        assert ShardResult.from_json_dict(payload).engine_counters == {}

    def test_supervised_campaign_ships_worker_counters(self):
        """jobs>1 routes results through the worker-pool message queue;
        the wire payload must carry each batch's counter deltas."""
        spec = CampaignSpec(iterations=4, seed=3, jobs=2)
        result = run_campaign(spec)
        assert result.engine_counters.get("boots", 0) > 0
        assert result.engine_counters.get("resets", 0) > 0

    def test_campaign_result_json_round_trip(self):
        spec = CampaignSpec(iterations=2, seed=5)
        result = run_campaign(spec)
        assert result.engine_counters.get("resets", 0) > 0
        text = result.to_json()
        assert "engine" not in json.loads(text)["spec"]
        back = CampaignResult.from_json(text)
        assert back.spec == spec
        assert back.engine_counters == result.engine_counters
