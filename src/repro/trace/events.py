"""The typed ExecEvent hierarchy (ExecTrace schema v1).

One frozen dataclass per event kind the execution stack can emit.  The
set mirrors the paper's moving parts: OEMU's store-buffer and
versioning-window mutations (§3), the custom scheduler's breakpoints
and interrupt injection (§10.3), syscall boundaries (the implicit full
barriers of Table 1), and oracle firings (§4.4).

Every event serializes to a flat JSON-safe dict via :meth:`to_dict`
(``kind`` plus scalar fields) and deserializes via
:func:`event_from_dict`; the round trip is exact, which is what lets
the replayer compare a live run against a recorded schedule artifact
byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Dict, Type

#: Version of the on-disk event / schedule-artifact schema.
SCHEMA_VERSION = 1

_REGISTRY: Dict[str, Type["ExecEvent"]] = {}


def _register(cls: Type["ExecEvent"]) -> Type["ExecEvent"]:
    if cls.kind in _REGISTRY:
        raise ValueError(f"duplicate event kind {cls.kind!r}")
    _REGISTRY[cls.kind] = cls
    return cls


@dataclass(frozen=True)
class ExecEvent:
    """Base of all execution events; subclasses set ``kind``."""

    kind: ClassVar[str] = ""

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out


def event_from_dict(payload: dict) -> ExecEvent:
    """Rebuild an event from its :meth:`ExecEvent.to_dict` form.

    Unknown keys (e.g. the recorder's ``i`` index annotation) are
    ignored so recorded artifacts stay loadable as fields grow.
    """
    kind = payload.get("kind")
    cls = _REGISTRY.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    kwargs = {f.name: payload[f.name] for f in fields(cls)}
    return cls(**kwargs)


def event_kinds() -> Dict[str, Type[ExecEvent]]:
    """The registered kind -> class map (read-only copy)."""
    return dict(_REGISTRY)


# -- interpreter layer -------------------------------------------------------


@_register
@dataclass(frozen=True)
class Step(ExecEvent):
    """One instruction retired by a thread (the bus's finest grain)."""

    kind: ClassVar[str] = "step"
    thread: int
    addr: int


# -- OEMU layer (§3) ---------------------------------------------------------


@_register
@dataclass(frozen=True)
class StoreDelayed(ExecEvent):
    """A store parked in the virtual store buffer instead of committing."""

    kind: ClassVar[str] = "store-delayed"
    thread: int
    inst_addr: int
    mem_addr: int
    size: int


@_register
@dataclass(frozen=True)
class BufferFlush(ExecEvent):
    """A thread's store buffer drained ``count`` pending stores."""

    kind: ClassVar[str] = "buffer-flush"
    thread: int
    count: int
    reason: str  # "barrier" | "interrupt" | "syscall-enter" | ...


@_register
@dataclass(frozen=True)
class VersionedLoad(ExecEvent):
    """A load served from the store history's versioning window.

    ``stale`` is True when at least one byte actually came from an old
    version (the window may contain no newer writes, in which case the
    versioned load degenerates to a plain read).
    """

    kind: ClassVar[str] = "versioned-load"
    thread: int
    inst_addr: int
    mem_addr: int
    size: int
    stale: bool


@_register
@dataclass(frozen=True)
class WindowReset(ExecEvent):
    """A thread's versioning window start (t_rmb) moved to ``ts``."""

    kind: ClassVar[str] = "window-reset"
    thread: int
    ts: int


@_register
@dataclass(frozen=True)
class InterruptInjected(ExecEvent):
    """An interrupt landed on a thread's CPU (flushes its buffer, §3.1)."""

    kind: ClassVar[str] = "interrupt"
    thread: int


# -- scheduler / executor layer (§10.3, Figure 5) ----------------------------


@_register
@dataclass(frozen=True)
class BreakpointHit(ExecEvent):
    """The scheduler suspended a thread at its scheduling point."""

    kind: ClassVar[str] = "breakpoint-hit"
    thread: int
    addr: int
    policy: str  # "before" | "after"
    hit: int     # dynamic occurrence count that triggered


@_register
@dataclass(frozen=True)
class PhaseBegin(ExecEvent):
    """The Figure 5 executor entered a new phase of a barrier test."""

    kind: ClassVar[str] = "phase"
    name: str  # "victim-to-sched" | "observer" | "victim-resume" | "finish"
    test: str  # "store" | "load"


# -- kernel boundary ---------------------------------------------------------


@_register
@dataclass(frozen=True)
class SyscallEnter(ExecEvent):
    """A thread entered the kernel (implicit full ordering)."""

    kind: ClassVar[str] = "syscall-enter"
    thread: int
    name: str


@_register
@dataclass(frozen=True)
class SyscallExit(ExecEvent):
    """A thread returned to userspace (implicit mb + exit oracles)."""

    kind: ClassVar[str] = "syscall-exit"
    thread: int
    name: str


# -- campaign supervisor layer -----------------------------------------------
#
# Emitted by repro.fuzzer.supervisor, not by machines: the supervisor
# watches worker *processes*, so its events describe shard lifecycle
# (start/heartbeat/retry/quarantine/checkpoint) rather than instruction
# effects.  They share the bus so one sink can observe a whole campaign.


@_register
@dataclass(frozen=True)
class ShardStarted(ExecEvent):
    """A shard worker process was (re)launched by the supervisor."""

    kind: ClassVar[str] = "shard-start"
    shard: int
    seed: int
    attempt: int  # 0 = first launch, >0 = retry after hang/death


@_register
@dataclass(frozen=True)
class ShardHeartbeat(ExecEvent):
    """A shard worker reported liveness before starting an iteration."""

    kind: ClassVar[str] = "shard-heartbeat"
    shard: int
    iteration: int


@_register
@dataclass(frozen=True)
class ShardRetried(ExecEvent):
    """A hung or dead shard worker was killed and rescheduled."""

    kind: ClassVar[str] = "shard-retry"
    shard: int
    attempt: int  # the attempt that failed
    reason: str   # "hung" | "died" | worker exception repr


@_register
@dataclass(frozen=True)
class BatchClaimed(ExecEvent):
    """A pool worker pulled a batch from the campaign work queue."""

    kind: ClassVar[str] = "batch-claim"
    worker: int
    batch: int
    attempt: int


@_register
@dataclass(frozen=True)
class BatchStolen(ExecEvent):
    """A batch was re-claimed by a different worker than its last attempt.

    Emitted alongside ``batch-claim`` when work migrates — either a
    retry landing on a surviving worker after a death, or an idle worker
    draining the queue ahead of a slow sibling.
    """

    kind: ClassVar[str] = "batch-steal"
    worker: int
    batch: int
    from_worker: int
    attempt: int


@_register
@dataclass(frozen=True)
class InputQuarantined(ExecEvent):
    """An input that repeatedly killed its worker was quarantined."""

    kind: ClassVar[str] = "shard-quarantine"
    shard: int
    iteration: int
    deaths: int


@_register
@dataclass(frozen=True)
class CheckpointWritten(ExecEvent):
    """The supervisor persisted merged campaign state to disk."""

    kind: ClassVar[str] = "checkpoint"
    completed_shards: int


# -- oracles / diagnostics ---------------------------------------------------


@_register
@dataclass(frozen=True)
class OracleFired(ExecEvent):
    """A bug oracle produced a crash report."""

    kind: ClassVar[str] = "oracle-report"
    title: str
    oracle: str
    inst_addr: int


@_register
@dataclass(frozen=True)
class TraceNote(ExecEvent):
    """Free-form diagnostic that would otherwise be swallowed silently."""

    kind: ClassVar[str] = "note"
    message: str
