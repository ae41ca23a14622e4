"""The service's route table — one declarative source of truth.

Each :class:`Route` pairs an HTTP method and path template with the
name of its :class:`~repro.serve.app.ServeApp` handler and a schema
description of its request/response bodies.  The table drives both:

* **dispatch** — :func:`match_route` resolves an incoming request to a
  handler and its path parameters;
* **documentation** — ``repro docs`` renders the REST API reference
  section of ``docs/service.md`` from this table (and ``repro docs
  --check`` fails CI when the committed file drifts), exactly as
  ``docs/cli.md`` is generated from the argparse tree.

Schemas here are *descriptive* (field -> prose), not validating: the
service is stdlib-only and the payloads are the existing JSON round
trips (``spec_to_dict``, ``CampaignResult.to_json``, crash artifacts),
which own their own validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

SPEC_FIELDS = (
    "any CampaignSpec field: iterations, seed, patched, jobs, "
    "batch_size, time_budget, use_seeds, static_hints, "
    "snapshot_reset, prefix_cache, shard_timeout, max_retries, "
    "checkpoint_every (checkpoint_dir is service-owned and rejected)"
)


@dataclass(frozen=True)
class Route:
    """One REST endpoint: method + path template + handler + schemas."""

    method: str
    path: str          # template; ``{name}`` segments capture parameters
    handler: str       # ServeApp method name
    summary: str
    request_schema: Optional[Dict[str, str]] = None
    response_schema: Dict[str, str] = field(default_factory=dict)

    def match(self, method: str, path: str) -> Optional[Dict[str, str]]:
        """Path parameters if ``method path`` matches, else ``None``."""
        if method != self.method:
            return None
        tmpl = self.path.strip("/").split("/")
        got = path.strip("/").split("/")
        if len(tmpl) != len(got):
            return None
        params: Dict[str, str] = {}
        for t, g in zip(tmpl, got):
            if t.startswith("{") and t.endswith("}"):
                if not g:
                    return None
                params[t[1:-1]] = g
            elif t != g:
                return None
        return params


ROUTES: Tuple[Route, ...] = (
    Route(
        "GET", "/api/health", "health",
        "Liveness probe and a one-line census of managed campaigns.",
        response_schema={
            "status": "always \"ok\" when the service is up",
            "campaigns": "count of campaigns per lifecycle state",
        },
    ),
    Route(
        "GET", "/api/campaigns", "list_campaigns",
        "List every managed campaign with its state and progress.",
        response_schema={
            "campaigns": "array of campaign summaries (id, state, spec, "
                         "progress, result summary when finished)",
        },
    ),
    Route(
        "POST", "/api/campaigns", "submit_campaign",
        "Submit a campaign; it queues and runs in the background.",
        request_schema={"<spec>": SPEC_FIELDS},
        response_schema={
            "campaign_id": "service-assigned id (stable across restarts)",
            "state": "initial state: \"queued\", or already \"running\" "
                     "when a worker-pool slot was free",
        },
    ),
    Route(
        "GET", "/api/campaigns/{id}", "campaign_detail",
        "Full detail for one campaign: spec, state, live batch progress.",
        response_schema={
            "id": "campaign id",
            "state": "lifecycle state (see docs/service.md state machine)",
            "spec": "the normalized CampaignSpec (spec_to_dict schema v2)",
            "progress": "batches total/done/failed + per-batch iteration",
            "error": "supervisor failure repr (state \"failed\" only)",
            "result": "result summary (terminal states only)",
        },
    ),
    Route(
        "POST", "/api/campaigns/{id}/pause", "pause_campaign",
        "Pause at batch granularity: drain to a checkpoint, then idle.",
        response_schema={"id": "campaign id",
                         "state": "\"pausing\" (or \"paused\" if queued)"},
    ),
    Route(
        "POST", "/api/campaigns/{id}/resume", "resume_campaign",
        "Re-queue a paused campaign; it resumes from its checkpoint.",
        response_schema={"id": "campaign id",
                         "state": "\"queued\" (or \"running\" when a "
                                  "worker-pool slot was free)"},
    ),
    Route(
        "POST", "/api/campaigns/{id}/cancel", "cancel_campaign",
        "Cancel a campaign (terminal); finished batches stay checkpointed.",
        response_schema={"id": "campaign id",
                         "state": "\"cancelling\" (or \"cancelled\")"},
    ),
    Route(
        "GET", "/api/campaigns/{id}/result", "campaign_result",
        "The merged CampaignResult JSON of a completed campaign.",
        response_schema={
            "<result>": "CampaignResult.to_json schema v2 (spec, stats, "
                        "crashes, shards, retries, engine_counters)",
        },
    ),
    Route(
        "GET", "/api/campaigns/{id}/crashes", "campaign_crashes",
        "Deduplicated crash titles found so far by one campaign.",
        response_schema={
            "crashes": "array of {title, count, first_test_index, bug_id, "
                       "oracle, artifact} (artifact = download name or null)",
        },
    ),
    Route(
        "GET", "/api/campaigns/{id}/artifacts", "list_artifacts",
        "List the campaign's replayable crash artifacts.",
        response_schema={"artifacts": "array of artifact file names"},
    ),
    Route(
        "GET", "/api/campaigns/{id}/artifacts/{name}", "download_artifact",
        "Download one crash artifact (schema v1 JSON, replayable).",
        response_schema={
            "<artifact>": "crash-artifact JSON: reproducer + crash identity "
                          "+ recorded event schedule",
        },
    ),
    Route(
        "GET", "/api/campaigns/{id}/artifacts/{name}/replay", "replay_stored",
        "Replay a stored artifact and return its annotated event feed.",
        response_schema={
            "verdict": "{ok, mismatches, events_compared} from replay_artifact",
            "crash": "crash identity block from the artifact",
            "feed": "annotated events: {i, kind, layer, description, "
                    "is_crash_event, event}",
        },
    ),
    Route(
        "POST", "/api/replay", "replay_posted",
        "Replay a crash artifact posted in the request body (explorer).",
        request_schema={"<artifact>": "crash-artifact JSON (schema v1)"},
        response_schema={
            "verdict": "{ok, mismatches, events_compared} from replay_artifact",
            "crash": "crash identity block from the artifact",
            "feed": "annotated events: {i, kind, layer, description, "
                    "is_crash_event, event}",
        },
    ),
    Route(
        "GET", "/api/stats", "stats",
        "Merged crash/coverage statistics across all campaigns.",
        response_schema={
            "campaigns": "count of campaigns per lifecycle state",
            "tests_run": "total tests executed across finished campaigns",
            "unique_titles": "crash titles deduplicated across campaigns",
            "crashes": "merged array of {title, count, bug_id, campaigns}",
            "found_table3": "union of Table 3 bug ids found",
            "found_table4": "union of Table 4 bug ids found",
            "coverage": "per-campaign covered-page counts {id: pages}",
        },
    ),
    Route(
        "GET", "/api/events", "events_stream",
        "Server-sent events: heartbeats, lifecycle changes, checkpoints.",
        response_schema={
            "(SSE)": "text/event-stream; each event is `id: <seq>` + "
                     "`data: <json>` with the ExecTrace event payload plus "
                     "a `campaign` id; `?since=N` replays the buffered "
                     "tail first",
        },
    ),
    Route(
        "GET", "/api/events/poll", "events_poll",
        "Long-poll alternative to SSE for the buffered event tail.",
        response_schema={
            "next": "sequence cursor to pass as ?since= on the next poll",
            "events": "buffered events after ?since=N (bounded ring)",
        },
    ),
    Route(
        "GET", "/", "dashboard",
        "The static dashboard (campaign table, live log, crash explorer).",
        response_schema={"(HTML)": "single-page dashboard"},
    ),
    Route(
        "GET", "/static/{name}", "static_asset",
        "Dashboard static assets (JS / CSS).",
        response_schema={"(asset)": "file contents"},
    ),
)


def match_route(method: str, path: str):
    """Resolve ``(route, params)`` for a request, or ``(None, None)``."""
    for route in ROUTES:
        params = route.match(method, path)
        if params is not None:
            return route, params
    return None, None
