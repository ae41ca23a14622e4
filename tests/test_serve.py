"""Tests for `repro serve` — the always-on campaign service.

Three contracts under test:

* **Routes** — every endpoint answers through ``app.dispatch`` alone
  (the in-process transport; no sockets in CI), with typed errors
  (404 unknown campaign, 405 wrong method, 400 bad payloads, 409
  illegal lifecycle transitions).
* **Lifecycle** — the campaign state machine in ``campaign_api``
  only permits the documented transitions, and pause/resume through
  the REST surface produces a result equal to an uninterrupted run.
* **Durability** — SIGKILL the daemon mid-campaign, restart on the
  same state directory, and ``recover()`` resumes from the checkpoint
  to a result equal (stats/crashes/shards) to a never-killed run.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.campaign_api import (
    CAMPAIGN_STATES,
    LIFECYCLE,
    TERMINAL_STATES,
    can_transition,
    validate_transition,
)
from repro.errors import ConfigError
from repro.fuzzer.supervisor import MANIFEST_NAME
from repro.serve.app import HttpRequest, ServeApp
from repro.serve.routes import ROUTES, match_route
from repro.serve.service import CampaignService

#: Small enough to finish in seconds, big enough to find crashes.
TINY = {"iterations": 6, "seed": 3}
#: Durability spec: small batches + per-batch checkpoints so pause and
#: SIGKILL land mid-campaign with completed work already on disk.
DURABLE = {"iterations": 18, "seed": 2, "batch_size": 2, "checkpoint_every": 1}


def dispatch(app, method, path, body=None, query=None):
    """Run one request through the in-process transport."""
    payload = b""
    if body is not None:
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
    request = HttpRequest(
        method=method, path=path, query=query or {}, body=payload
    )
    return asyncio.run(app.dispatch(request))


def _strip_seconds(node):
    if isinstance(node, dict):
        return {k: _strip_seconds(v) for k, v in node.items() if k != "seconds"}
    if isinstance(node, list):
        return [_strip_seconds(v) for v in node]
    return node


def result_parts(result_text):
    """The determinism-relevant parts of a CampaignResult JSON blob.

    Specs differ by checkpoint_dir and wall-clock ``seconds`` is
    telemetry, so equality is asserted on stats/crashes/shards with
    timings stripped (the same convention test_supervisor.py relies on
    via the dataclasses' ``compare=False`` fields).
    """
    data = json.loads(result_text)
    return _strip_seconds({k: data[k] for k in ("stats", "crashes", "shards")})


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A service with one tiny campaign already run to completion."""
    svc = CampaignService(
        str(tmp_path_factory.mktemp("serve")), max_concurrent=1
    )
    app = ServeApp(svc)
    resp = dispatch(app, "POST", "/api/campaigns", TINY)
    assert resp.status == 200
    cid = resp.json()["campaign_id"]
    assert svc.wait(cid, timeout=300) == "completed"
    yield svc, app, cid
    svc.close()


@pytest.fixture(scope="module")
def clean_durable(tmp_path_factory):
    """One uninterrupted run of DURABLE every durability test compares
    against (as CampaignResult JSON)."""
    svc = CampaignService(
        str(tmp_path_factory.mktemp("clean")), max_concurrent=1
    )
    mc = svc.submit(dict(DURABLE))
    assert svc.wait(mc.id, timeout=600) == "completed"
    text = svc.result_json(mc.id)
    svc.close()
    assert text is not None
    return text


class TestLifecycleMachine:
    def test_every_state_is_mapped(self):
        assert set(LIFECYCLE) == set(CAMPAIGN_STATES)

    def test_terminal_states_have_no_exits(self):
        for state in TERMINAL_STATES:
            assert LIFECYCLE[state] == ()

    def test_documented_transitions(self):
        assert can_transition("queued", "running")
        assert can_transition("running", "pausing")
        assert can_transition("pausing", "paused")
        assert can_transition("paused", "queued")
        assert can_transition("running", "queued")  # daemon-restart edge
        assert not can_transition("completed", "running")
        assert not can_transition("paused", "running")  # must re-queue

    def test_validate_transition_raises(self):
        validate_transition("queued", "running")
        with pytest.raises(ConfigError):
            validate_transition("completed", "queued")
        with pytest.raises(ConfigError):
            validate_transition("nonsense", "queued")


class TestRouteTable:
    def test_handlers_exist_and_are_async(self):
        for route in ROUTES:
            handler = getattr(ServeApp, route.handler)
            assert asyncio.iscoroutinefunction(handler), route.handler

    def test_method_path_pairs_unique(self):
        pairs = [(r.method, r.path) for r in ROUTES]
        assert len(pairs) == len(set(pairs))

    def test_path_params_captured(self):
        route, params = match_route(
            "GET", "/api/campaigns/c0001/artifacts/x.json"
        )
        assert route.handler == "download_artifact"
        assert params == {"id": "c0001", "name": "x.json"}

    def test_no_route(self):
        assert match_route("GET", "/api/nothing") == (None, None)
        assert match_route("DELETE", "/api/health") == (None, None)


class TestApi:
    def test_health(self, served):
        _svc, app, _cid = served
        payload = dispatch(app, "GET", "/api/health").json()
        assert payload["status"] == "ok"
        assert payload["campaigns"].get("completed", 0) >= 1

    def test_campaign_listing_and_detail(self, served):
        _svc, app, cid = served
        listing = dispatch(app, "GET", "/api/campaigns").json()
        assert cid in [c["id"] for c in listing["campaigns"]]
        detail = dispatch(app, "GET", f"/api/campaigns/{cid}").json()
        assert detail["state"] == "completed"
        assert detail["spec"]["iterations"] == TINY["iterations"]
        assert detail["result"]["tests_run"] > 0
        assert detail["progress"]["done"] == detail["progress"]["batches"]

    def test_result_is_campaign_result_json(self, served):
        _svc, app, cid = served
        resp = dispatch(app, "GET", f"/api/campaigns/{cid}/result")
        assert resp.status == 200
        from repro.campaign_api import CampaignResult

        result = CampaignResult.from_json(resp.body.decode())
        assert result.stats.tests_run > 0
        assert not result.interrupted

    def test_crashes_reference_artifacts(self, served):
        _svc, app, cid = served
        crashes = dispatch(
            app, "GET", f"/api/campaigns/{cid}/crashes"
        ).json()["crashes"]
        assert crashes, "the tiny campaign should find crashes"
        named = [c for c in crashes if c["artifact"]]
        assert named, "completed campaigns ship downloadable artifacts"
        listing = dispatch(
            app, "GET", f"/api/campaigns/{cid}/artifacts"
        ).json()["artifacts"]
        for crash in named:
            assert crash["artifact"] in listing

    def test_artifact_download_and_stored_replay(self, served):
        _svc, app, cid = served
        name = dispatch(
            app, "GET", f"/api/campaigns/{cid}/artifacts"
        ).json()["artifacts"][0]
        resp = dispatch(app, "GET", f"/api/campaigns/{cid}/artifacts/{name}")
        assert resp.status == 200
        artifact = json.loads(resp.body.decode())
        assert artifact["kind"] == "ozz-crash-artifact"
        replay = dispatch(
            app, "GET", f"/api/campaigns/{cid}/artifacts/{name}/replay"
        ).json()
        assert replay["verdict"]["ok"] is True
        assert replay["feed"], "replay must produce an annotated feed"
        assert any(e["is_crash_event"] for e in replay["feed"])
        for entry in replay["feed"]:
            assert {"i", "kind", "layer", "description", "event"} <= set(entry)

    def test_posted_replay(self, served):
        _svc, app, cid = served
        name = dispatch(
            app, "GET", f"/api/campaigns/{cid}/artifacts"
        ).json()["artifacts"][0]
        body = dispatch(
            app, "GET", f"/api/campaigns/{cid}/artifacts/{name}"
        ).body
        replay = dispatch(app, "POST", "/api/replay", body=body).json()
        assert replay["verdict"]["ok"] is True

    def test_merged_stats(self, served):
        _svc, app, _cid = served
        stats = dispatch(app, "GET", "/api/stats").json()
        assert stats["tests_run"] > 0
        assert stats["unique_titles"] == len(stats["crashes"])
        assert isinstance(stats["found_table3"], list)

    def test_events_poll_pagination(self, served):
        _svc, app, _cid = served
        page = dispatch(app, "GET", "/api/events/poll").json()
        assert page["events"], "a finished campaign left events in the ring"
        kinds = {e["kind"] for e in page["events"]}
        assert "campaign-state" in kinds
        assert "shard-heartbeat" in kinds
        again = dispatch(
            app, "GET", "/api/events/poll", query={"since": str(page["next"])}
        ).json()
        assert again["events"] == []

    def test_events_stream_replays_ring(self, served):
        _svc, app, _cid = served

        async def first_frames(n):
            resp = await app.dispatch(
                HttpRequest("GET", "/api/events", query={"since": "0"})
            )
            assert resp.streaming
            assert resp.content_type.startswith("text/event-stream")
            frames = []
            gen = resp.body
            async for chunk in gen:
                frames.append(chunk)
                if len(frames) >= n:
                    break
            await gen.aclose()  # must unsubscribe cleanly
            return frames

        frames = asyncio.run(first_frames(3))
        for frame in frames:
            text = frame.decode()
            assert text.startswith("id: ")
            payload = json.loads(text.split("data: ", 1)[1].strip())
            assert "kind" in payload and "seq" in payload

    def test_dashboard_and_assets(self, served):
        _svc, app, _cid = served
        page = dispatch(app, "GET", "/")
        assert page.content_type.startswith("text/html")
        html = page.body.decode()
        assert "Crash explorer" in html
        for asset, marker in (
            ("app.js", "renderFeed"),
            ("style.css", "crash-event"),
        ):
            resp = dispatch(app, "GET", f"/static/{asset}")
            assert resp.status == 200
            assert marker in resp.body.decode()

    # -- error paths -------------------------------------------------------

    def test_unknown_campaign_404(self, served):
        _svc, app, _cid = served
        resp = dispatch(app, "GET", "/api/campaigns/c9999")
        assert resp.status == 404
        assert "c9999" in resp.json()["error"]

    def test_wrong_method_405(self, served):
        _svc, app, _cid = served
        assert dispatch(app, "POST", "/api/health").status == 405
        assert dispatch(app, "GET", "/api/replay").status == 405

    def test_submit_rejections_400(self, served):
        _svc, app, _cid = served
        bad = dispatch(app, "POST", "/api/campaigns", body=b"{nope")
        assert bad.status == 400
        unknown = dispatch(app, "POST", "/api/campaigns", {"iterationz": 5})
        assert unknown.status == 400
        assert "iterationz" in unknown.json()["error"]
        removed = dispatch(app, "POST", "/api/campaigns", {"engine": "auto"})
        assert removed.status == 400
        assert "engine" in removed.json()["error"]
        owned = dispatch(
            app, "POST", "/api/campaigns", {"checkpoint_dir": "/tmp/x"}
        )
        assert owned.status == 400
        assert "service-owned" in owned.json()["error"]

    def test_illegal_transition_409(self, served):
        _svc, app, cid = served
        resp = dispatch(app, "POST", f"/api/campaigns/{cid}/resume")
        assert resp.status == 409

    def test_artifact_name_traversal_rejected(self, served):
        _svc, app, cid = served
        resp = dispatch(
            app, "GET", f"/api/campaigns/{cid}/artifacts/..%2Fservice.json"
        )
        # the ".." segment never matches a stored artifact; a literal
        # separator is rejected by the service before touching the disk
        assert resp.status in (400, 404)
        with pytest.raises(ConfigError):
            served[0].artifact_text(cid, "../service.json")
        with pytest.raises(ConfigError):
            served[0].artifact_text(cid, ".hidden.json")

    def test_posted_replay_rejects_garbage_400(self, served):
        _svc, app, _cid = served
        resp = dispatch(app, "POST", "/api/replay", body=b"not json at all")
        assert resp.status == 400
        assert "not a crash artifact" in resp.json()["error"]


class TestRegistryPersistence:
    def test_registry_survives_reload(self, served):
        svc, _app, cid = served
        reloaded = CampaignService(svc.state_dir, max_concurrent=1)
        assert cid in reloaded.campaign_ids()
        summary = reloaded.summary(cid)
        assert summary["state"] == "completed"
        assert summary["result"]["tests_run"] > 0
        assert reloaded.recover() == []  # nothing to requeue

    def test_submit_ids_monotonic_across_restarts(self, tmp_path):
        svc = CampaignService(str(tmp_path), max_concurrent=1)
        first = svc.submit(dict(TINY))
        svc.wait(first.id, timeout=300)
        svc.close()
        again = CampaignService(str(tmp_path), max_concurrent=1)
        second = again.submit(dict(TINY))
        assert second.id != first.id
        again.cancel(second.id)
        again.wait(second.id, timeout=60)
        again.close()


class TestPauseResume:
    def test_pause_resume_round_trip_equals_clean(self, tmp_path, clean_durable):
        svc = CampaignService(str(tmp_path / "state"), max_concurrent=1)
        app = ServeApp(svc)
        heartbeat = threading.Event()
        svc.hub.subscribe(
            lambda e: heartbeat.set() if e.get("kind") == "shard-heartbeat" else None
        )
        cid = dispatch(app, "POST", "/api/campaigns", DURABLE).json()[
            "campaign_id"
        ]
        assert heartbeat.wait(120), "campaign produced no heartbeat"
        resp = dispatch(app, "POST", f"/api/campaigns/{cid}/pause")
        assert resp.json()["state"] in ("pausing", "paused")
        assert svc.wait(cid, timeout=300) in ("paused", "completed")
        state = svc.summary(cid)["state"]
        if state == "paused":
            # while paused: a manifest on disk, no result yet
            assert os.path.exists(
                os.path.join(svc.checkpoint_dir(cid), MANIFEST_NAME)
            )
            assert (
                dispatch(app, "GET", f"/api/campaigns/{cid}/result").status
                == 404
            )
            resumed = dispatch(app, "POST", f"/api/campaigns/{cid}/resume")
            # re-queued; promoted straight to running when a slot is free
            assert resumed.json()["state"] in ("queued", "running")
            assert svc.wait(cid, timeout=600) == "completed"
        resp = dispatch(app, "GET", f"/api/campaigns/{cid}/result")
        assert result_parts(resp.body.decode()) == result_parts(clean_durable)
        svc.close()

    def test_pause_of_queued_campaign_holds_it(self, tmp_path):
        svc = CampaignService(str(tmp_path), max_concurrent=1)
        # Fill the single slot so the next submission stays queued.
        running = svc.submit(dict(DURABLE))
        held = svc.submit(dict(TINY))
        assert held.state == "queued"
        assert svc.pause(held.id).state == "paused"
        svc.cancel(running.id)
        svc.cancel(held.id)
        svc.wait(running.id, timeout=120)
        svc.close()

    def test_cancel_is_terminal(self, tmp_path):
        svc = CampaignService(str(tmp_path), max_concurrent=1)
        mc = svc.submit(dict(DURABLE))
        svc.cancel(mc.id)
        # "completed" only if every batch finished before the stop
        # landed — either way the campaign is terminal and stays so.
        state = svc.wait(mc.id, timeout=120)
        assert state in TERMINAL_STATES
        with pytest.raises(ConfigError):
            svc.resume(mc.id)
        svc.close()


class TestKillRestart:
    def test_sigkill_then_recover_equals_clean(self, tmp_path, clean_durable):
        """The headline durability contract: SIGKILL the daemon process
        mid-campaign, restart a service on the same state directory, and
        recover() must resume the campaign from its checkpoint to a
        result equal to an uninterrupted run."""
        state_dir = str(tmp_path / "state")
        script = textwrap.dedent(
            """
            import json, sys
            from repro.serve.service import CampaignService

            svc = CampaignService(sys.argv[1], max_concurrent=1)
            mc = svc.submit(json.loads(sys.argv[2]))
            print(mc.id, flush=True)
            svc.wait(mc.id, timeout=600)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, state_dir, json.dumps(DURABLE)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            cid = proc.stdout.readline().strip()
            assert cid, proc.communicate()[1]
            # Wait for a completed batch checkpoint — killing before any
            # work is durable would just test a fresh run.
            shard0 = os.path.join(state_dir, "campaigns", cid, "ckpt",
                                  "shard-000.json")
            deadline = time.monotonic() + 180
            while not os.path.exists(shard0):
                assert time.monotonic() < deadline, "no checkpoint written"
                assert proc.poll() is None, proc.communicate()[1]
                time.sleep(0.05)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        svc = CampaignService(state_dir, max_concurrent=1)
        # The registry still says "running" — the daemon died without
        # transitioning; recover() requeues exactly that campaign.
        assert svc.summary(cid)["state"] == "running"
        assert svc.recover() == [cid]
        assert svc.wait(cid, timeout=600) == "completed"
        assert result_parts(svc.result_json(cid)) == result_parts(
            clean_durable
        )
        svc.close()
