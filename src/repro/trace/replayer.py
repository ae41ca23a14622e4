"""Record/replay of crashing executions (the rr-style artifact).

A :class:`CrashArtifact` is the contract between fuzzing, triage and
reproduction: everything needed to re-drive the Figure 5 executor and
check — event-for-event — that the same schedule produced the same
crash.  Schema v1 (documented in DESIGN.md):

.. code-block:: json

    {"version": 1, "kind": "ozz-crash-artifact",
     "reproducer": { ...repro.fuzzer.reproducer payload v1... },
     "crash": {"title": "...", "oracle": "kasan", "function": "...",
               "inst_addr": 123, "event_index": 407,
               "reordered_insns": [64, 68], "hypothetical_barrier": 72,
               "barrier_test": "store"},
     "schedule": {"version": 1, "capacity": 65536, "dropped": 0,
                  "n_events": 412, "events": [...]}}

:func:`record_crash_artifact` produces one by running an MTI with a
recording sink (on the fuzzer's pooled kernel when it has one);
:func:`replay_artifact` boots a fresh kernel from the artifact's
config, re-runs the exact MTI, and compares crash identity
(oracle, title, reordered instruction addresses, barrier location) and
the serialized event streams byte-for-byte.

This module deliberately lives outside ``repro.trace.__init__``'s
exports: it imports the fuzzer/kernel layers, and the bus core must
stay import-light so those layers can import it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.config import KernelConfig
from repro.fuzzer.mti import MTI, MTIResult, run_mti
from repro.fuzzer.reproducer import Reproducer
from repro.kernel.kernel import KernelImage, KernelPool, kernel_image
from repro.trace.events import SCHEMA_VERSION
from repro.trace.recorder import DEFAULT_CAPACITY, TraceRecorder

ARTIFACT_KIND = "ozz-crash-artifact"


class ArtifactError(ValueError):
    """A crash-artifact payload could not be understood.

    Raised (instead of a raw ``KeyError``/``TypeError`` traceback) for
    non-JSON input, a wrong ``kind``, an unsupported schema version, or
    a payload missing required fields.  ``repro replay`` maps it to
    exit code 2, and the service's replay endpoint maps it to HTTP 400
    — artifacts travel over HTTP now, so garbage input is an expected
    condition, not a crash.
    """


@dataclass(frozen=True)
class CrashArtifact:
    """A recorded crashing schedule: reproducer + crash identity + events."""

    reproducer: Reproducer
    title: str
    oracle: str
    function: str
    inst_addr: int
    event_index: Optional[int]
    reordered_insns: Tuple[int, ...]
    hypothetical_barrier: Optional[int]
    barrier_test: str
    schedule: dict  # TraceRecorder.schedule_dict() output

    # -- construction ------------------------------------------------------

    @property
    def mti(self) -> MTI:
        r = self.reproducer
        return MTI(sti=r.sti, pair=r.pair, hint=r.hint)

    def image(self) -> KernelImage:
        """The kernel image this artifact was recorded against."""
        return kernel_image(KernelConfig(patched=frozenset(self.reproducer.patched)))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """The schema v1 payload as a JSON-ready dict.

        The schedule is the artifact's own dict, not a copy.
        """
        return {
            "version": SCHEMA_VERSION,
            "kind": ARTIFACT_KIND,
            "reproducer": self.reproducer.to_dict(),
            "crash": {
                "title": self.title,
                "oracle": self.oracle,
                "function": self.function,
                "inst_addr": self.inst_addr,
                "event_index": self.event_index,
                "reordered_insns": list(self.reordered_insns),
                "hypothetical_barrier": self.hypothetical_barrier,
                "barrier_test": self.barrier_test,
            },
            "schedule": self.schedule,
        }

    @classmethod
    def from_dict(
        cls, payload: object, reproducer: Optional[Reproducer] = None
    ) -> "CrashArtifact":
        """Decode a :meth:`to_dict` payload; every defect is an ArtifactError.

        ``reproducer``, when given, is used instead of decoding
        ``payload["reproducer"]`` (a campaign checkpoint stores a crash
        record's reproducer once and links its artifact to it).
        """
        if not isinstance(payload, dict):
            raise ArtifactError(
                "not a crash artifact: expected a JSON object, got "
                f"{type(payload).__name__}"
            )
        if payload.get("kind") != ARTIFACT_KIND:
            raise ArtifactError(
                f"not a crash artifact: kind={payload.get('kind')!r} "
                f"(expected {ARTIFACT_KIND!r})"
            )
        version = payload.get("version")
        if version != SCHEMA_VERSION:
            hint = (
                " — the artifact is newer than this tool; upgrade repro"
                if isinstance(version, int) and version > SCHEMA_VERSION
                else ""
            )
            raise ArtifactError(
                f"unsupported crash-artifact schema version {version!r} "
                f"(this build reads version {SCHEMA_VERSION}){hint}"
            )
        try:
            crash = payload["crash"]
            if reproducer is None:
                reproducer = Reproducer.from_dict(payload["reproducer"])
            return cls(
                reproducer=reproducer,
                title=crash["title"],
                oracle=crash["oracle"],
                function=crash["function"],
                inst_addr=crash["inst_addr"],
                event_index=crash["event_index"],
                reordered_insns=tuple(crash["reordered_insns"]),
                hypothetical_barrier=crash["hypothetical_barrier"],
                barrier_test=crash["barrier_test"],
                schedule=payload["schedule"],
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            # A malformed field inside an otherwise well-versioned
            # payload: name the offender instead of tracebacking.
            detail = (
                f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
            )
            raise ArtifactError(f"malformed crash artifact: {detail}")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CrashArtifact":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"not a crash artifact: invalid JSON ({exc})")
        return cls.from_dict(payload)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "CrashArtifact":
        with open(path) as fh:
            return cls.from_json(fh.read())


def artifact_slug(title: str) -> str:
    """Filesystem-safe stem for a crash title's artifact file."""
    import re

    return re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")[:64]


def dump_artifacts(crashdb, patched, outdir: str) -> List[str]:
    """Write each unique crash's schedule artifact as JSON under outdir.

    Returns the written paths.  Shared by ``repro fuzz --artifacts`` and
    the service's per-campaign artifact store: crashes recorded with an
    attached artifact save directly; crashes holding only a reproducer
    are re-run against the image of ``patched`` to record one (a re-run
    that no longer crashes — e.g. the bug was patched meanwhile — is
    skipped).
    """
    import os

    os.makedirs(outdir, exist_ok=True)
    image = None
    written: List[str] = []
    for title in crashdb.unique_titles:
        rec = crashdb.records[title]
        artifact = rec.artifact
        if artifact is None and rec.reproducer is not None:
            if image is None:
                image = kernel_image(KernelConfig(patched=frozenset(patched)))
            try:
                artifact = rec.reproducer.record_artifact(image)
            except ValueError:
                continue
        if artifact is None:
            continue
        path = os.path.join(outdir, f"{artifact_slug(title)}.json")
        artifact.save(path)
        written.append(path)
    return written


def record_crash_artifact(
    image: KernelImage,
    mti: MTI,
    *,
    capacity: int = DEFAULT_CAPACITY,
    pool: Optional[KernelPool] = None,
) -> CrashArtifact:
    """Run ``mti`` with a recording sink and package the crash artifact.

    Execution is deterministic, so re-running a crashing MTI with the
    recorder attached reproduces the same crash — now with its full
    event schedule.  With ``pool`` (the fuzzer's), the run takes the
    pooled kernel reset to boot state instead of booting a fresh one;
    the artifact is byte-identical either way, and
    :func:`replay_artifact` re-checks it on a fresh boot.  Raises
    :class:`ValueError` if the run did not crash (the artifact would
    have nothing to prove).
    """
    recorder = TraceRecorder(capacity)
    kernel = pool.acquire() if pool is not None else None
    result = run_mti(image, mti, trace=recorder, kernel=kernel)
    if not result.crashed:
        raise ValueError(
            f"MTI did not crash under recording (phase={result.phase!r}); "
            "cannot build a crash artifact"
        )
    crash = result.crash
    schedule = recorder.schedule_dict()
    crash.schedule = schedule  # every recorded CrashReport carries its schedule
    reproducer = Reproducer(
        sti=mti.sti,
        pair=mti.pair,
        hint=mti.hint,
        expected_title=crash.title,
        patched=tuple(sorted(image.config.patched)),
    )
    return CrashArtifact(
        reproducer=reproducer,
        title=crash.title,
        oracle=crash.oracle,
        function=crash.function,
        inst_addr=crash.inst_addr,
        event_index=crash.event_index,
        reordered_insns=tuple(crash.reordered_insns),
        hypothetical_barrier=crash.hypothetical_barrier,
        barrier_test=crash.barrier_test,
        schedule=schedule,
    )


@dataclass
class ReplayResult:
    """Verdict of replaying a crash artifact."""

    ok: bool
    mismatches: List[str] = field(default_factory=list)
    events_compared: int = 0
    result: Optional[MTIResult] = None

    def render(self) -> str:
        if self.ok:
            return (
                f"replay OK: crash reproduced deterministically "
                f"({self.events_compared} events matched byte-for-byte)"
            )
        lines = ["replay FAILED:"]
        lines.extend(f"  - {m}" for m in self.mismatches)
        return "\n".join(lines)


def _normalized_events(events: List[dict]) -> str:
    """Canonical byte form of an event list (key order independent)."""
    return json.dumps(events, sort_keys=True, separators=(",", ":"))


def replay_artifact(
    artifact: CrashArtifact, image: Optional[KernelImage] = None
) -> ReplayResult:
    """Re-drive the executor from a recorded artifact and compare.

    Boots a fresh kernel (same patch set as the recording unless
    ``image`` is given), re-runs the exact MTI with a fresh recorder,
    and checks crash identity plus the event streams byte-for-byte.
    Replay always boots fresh: it is the reference every recording on a
    pooled kernel must match.
    When the original ring dropped events, only the retained window is
    compared (both runs keep the same-capacity tail).
    """
    if image is None:
        image = artifact.image()
    recorder = TraceRecorder(artifact.schedule.get("capacity", DEFAULT_CAPACITY))
    result = run_mti(image, artifact.mti, trace=recorder)
    verdict = ReplayResult(ok=True, result=result)

    def mismatch(msg: str) -> None:
        verdict.ok = False
        verdict.mismatches.append(msg)

    if not result.crashed:
        mismatch(f"run did not crash (hung={result.hung}, phase={result.phase!r})")
        return verdict
    crash = result.crash
    if crash.title != artifact.title:
        mismatch(f"title: expected {artifact.title!r}, got {crash.title!r}")
    if crash.oracle != artifact.oracle:
        mismatch(f"oracle: expected {artifact.oracle!r}, got {crash.oracle!r}")
    if tuple(crash.reordered_insns) != artifact.reordered_insns:
        mismatch(
            f"reordered insns: expected {artifact.reordered_insns}, "
            f"got {tuple(crash.reordered_insns)}"
        )
    if crash.hypothetical_barrier != artifact.hypothetical_barrier:
        mismatch(
            f"hypothetical barrier: expected {artifact.hypothetical_barrier}, "
            f"got {crash.hypothetical_barrier}"
        )
    if crash.barrier_test != artifact.barrier_test:
        mismatch(
            f"barrier test: expected {artifact.barrier_test!r}, "
            f"got {crash.barrier_test!r}"
        )
    if crash.event_index != artifact.event_index:
        mismatch(
            f"oracle event index: expected {artifact.event_index}, "
            f"got {crash.event_index}"
        )
    recorded = artifact.schedule.get("events", [])
    live = recorder.schedule_dict()["events"]
    verdict.events_compared = min(len(recorded), len(live))
    if _normalized_events(recorded) != _normalized_events(live):
        mismatch(
            f"event streams diverge ({len(recorded)} recorded vs {len(live)} live)"
        )
    return verdict
