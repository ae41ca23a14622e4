"""Annotated JSON event feed for the crash explorer.

The dashboard's crash explorer steps through a replayed schedule one
event at a time; raw :meth:`ExecEvent.to_dict` payloads are exact but
terse (``{"kind": "store-delayed", "thread": 1, "inst_addr": ...}``).
This module turns a schedule dict (the ``schedule`` section of a crash
artifact, or a live :meth:`TraceRecorder.schedule_dict`) into a feed of
entries that also carry a human-readable description and a layer tag,
so the UI can render and colour the stream without kind-specific logic.

Stays import-light (events only) so it is safe from any layer,
including the service's route handlers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Event kind -> architectural layer, for colour-coding in the explorer.
EVENT_LAYERS: Dict[str, str] = {
    "step": "interpreter",
    "store-delayed": "oemu",
    "buffer-flush": "oemu",
    "versioned-load": "oemu",
    "window-reset": "oemu",
    "interrupt": "oemu",
    "breakpoint-hit": "scheduler",
    "phase": "scheduler",
    "syscall-enter": "kernel",
    "syscall-exit": "kernel",
    "oracle-report": "oracle",
    "note": "diagnostic",
    "shard-start": "supervisor",
    "shard-heartbeat": "supervisor",
    "shard-retry": "supervisor",
    "batch-claim": "supervisor",
    "batch-steal": "supervisor",
    "shard-quarantine": "supervisor",
    "checkpoint": "supervisor",
}


def describe_event(payload: dict) -> str:
    """One human-readable line for an event's dict form.

    Unknown kinds degrade to a key=value dump instead of raising, so a
    feed stays renderable for artifacts recorded by a newer build.
    """
    kind = payload.get("kind", "?")
    t = payload.get("thread")
    if kind == "step":
        return f"thread {t} retired instruction @{payload.get('addr')}"
    if kind == "store-delayed":
        return (
            f"thread {t} parked a {payload.get('size')}-byte store to "
            f"mem {payload.get('mem_addr')} in its store buffer "
            f"(inst @{payload.get('inst_addr')})"
        )
    if kind == "buffer-flush":
        return (
            f"thread {t} drained {payload.get('count')} pending store(s) "
            f"({payload.get('reason')})"
        )
    if kind == "versioned-load":
        stale = "STALE value" if payload.get("stale") else "current value"
        return (
            f"thread {t} load of mem {payload.get('mem_addr')} served from "
            f"the versioning window ({stale})"
        )
    if kind == "window-reset":
        return f"thread {t} versioning window reset to ts {payload.get('ts')}"
    if kind == "interrupt":
        return f"interrupt landed on thread {t}'s CPU (store buffer flushes)"
    if kind == "breakpoint-hit":
        return (
            f"scheduler suspended thread {t} at @{payload.get('addr')} "
            f"({payload.get('policy')}, hit #{payload.get('hit')})"
        )
    if kind == "phase":
        return (
            f"executor phase {payload.get('name')!r} "
            f"({payload.get('test')}-test)"
        )
    if kind == "syscall-enter":
        return f"thread {t} entered the kernel: {payload.get('name')}()"
    if kind == "syscall-exit":
        return f"thread {t} returned from {payload.get('name')}()"
    if kind == "oracle-report":
        return (
            f"ORACLE {payload.get('oracle')}: {payload.get('title')} "
            f"(inst @{payload.get('inst_addr')})"
        )
    if kind == "note":
        return str(payload.get("message", ""))
    if kind == "shard-heartbeat":
        return (
            f"shard {payload.get('shard')} heartbeat before iteration "
            f"{payload.get('iteration')}"
        )
    if kind == "checkpoint":
        return (
            f"checkpoint written ({payload.get('completed_shards')} "
            f"complete shard(s))"
        )
    detail = ", ".join(
        f"{k}={v}" for k, v in sorted(payload.items()) if k not in ("kind", "i")
    )
    return f"{kind}: {detail}" if detail else kind


def schedule_feed(schedule: dict, crash: Optional[dict] = None) -> List[dict]:
    """Annotate a schedule dict's events for step-by-step rendering.

    Each entry keeps the raw event payload and adds ``layer``,
    ``description``, and (when ``crash`` is given) ``is_crash_event`` —
    True on the event the crash's oracle fired at, so the explorer can
    jump straight to it.
    """
    crash_index = (crash or {}).get("event_index")
    feed = []
    for payload in schedule.get("events", []):
        feed.append(
            {
                "i": payload.get("i"),
                "kind": payload.get("kind", "?"),
                "layer": EVENT_LAYERS.get(payload.get("kind", ""), "unknown"),
                "description": describe_event(payload),
                "is_crash_event": (
                    crash_index is not None and payload.get("i") == crash_index
                ),
                "event": {k: v for k, v in payload.items() if k != "i"},
            }
        )
    return feed
