"""Crash reproducers: serialize and replay a found OOO bug.

Syzkaller's most valued artifact is the *reproducer* — a standalone
program that retriggers a crash.  OZZ's equivalent needs more than the
syscalls: the schedule point and the reordering controls are part of the
bug's identity.  A :class:`Reproducer` captures all of it — the STI, the
concurrent pair, the scheduling hint, the kernel configuration — as
JSON, so a developer can re-run the exact failing test against a patched
kernel build (``replay`` with a different config) to validate a fix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.config import KernelConfig
from repro.fuzzer.hints import SchedulingHint
from repro.fuzzer.mti import MTI, MTIResult, run_mti
from repro.fuzzer.sti import STI, Call, ResourceRef
from repro.kernel.kernel import KernelImage, kernel_image

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Reproducer:
    """A self-contained, replayable OOO-bug trigger."""

    sti: STI
    pair: Tuple[int, int]
    hint: SchedulingHint
    expected_title: str
    patched: Tuple[str, ...] = ()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_result(cls, result: MTIResult, config: Optional[KernelConfig] = None) -> "Reproducer":
        if not result.crashed:
            raise ValueError("cannot build a reproducer from a non-crashing result")
        return cls(
            sti=result.mti.sti,
            pair=result.mti.pair,
            hint=result.mti.hint,
            expected_title=result.crash.title,
            patched=tuple(sorted(config.patched)) if config else (),
        )

    # -- replay ---------------------------------------------------------------

    def replay(self, image: Optional[KernelImage] = None) -> MTIResult:
        """Re-run the exact failing test; fresh kernel, same controls."""
        if image is None:
            image = kernel_image(KernelConfig(patched=frozenset(self.patched)))
        return run_mti(image, MTI(sti=self.sti, pair=self.pair, hint=self.hint))

    def still_triggers(self, image: Optional[KernelImage] = None) -> bool:
        result = self.replay(image)
        return result.crashed and result.crash.title == self.expected_title

    def record_artifact(self, image: Optional[KernelImage] = None):
        """Record a replayable schedule artifact for this trigger.

        Runs the exact failing test with an ExecTrace recorder attached
        and returns a :class:`repro.trace.replayer.CrashArtifact` whose
        event schedule can be validated deterministically with
        :func:`repro.trace.replayer.replay_artifact` (or ``repro replay``)
        instead of re-searching for the crash.  Raises ``ValueError`` if
        the test no longer crashes (e.g. against a patched image).
        """
        # Lazy import: the replayer imports this module.
        from repro.trace.replayer import record_crash_artifact

        if image is None:
            image = kernel_image(KernelConfig(patched=frozenset(self.patched)))
        return record_crash_artifact(
            image, MTI(sti=self.sti, pair=self.pair, hint=self.hint)
        )

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        def arg(a):
            return {"ref": a.index} if isinstance(a, ResourceRef) else a

        payload = {
            "version": FORMAT_VERSION,
            "title": self.expected_title,
            "patched": list(self.patched),
            "calls": [
                {"name": c.name, "args": [arg(a) for a in c.args]}
                for c in self.sti.calls
            ],
            "pair": list(self.pair),
            "hint": {
                "barrier_type": self.hint.barrier_type,
                "reorder_side": self.hint.reorder_side,
                "sched_addr": self.hint.sched_addr,
                "sched_hit": self.hint.sched_hit,
                "reorder": list(self.hint.reorder),
                "nreorder": self.hint.nreorder,
            },
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Reproducer":
        payload = json.loads(text)
        if payload.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported reproducer version {payload.get('version')!r}")

        def arg(a):
            return ResourceRef(a["ref"]) if isinstance(a, dict) else a

        calls = tuple(
            Call(c["name"], tuple(arg(a) for a in c["args"])) for c in payload["calls"]
        )
        h = payload["hint"]
        hint = SchedulingHint(
            barrier_type=h["barrier_type"],
            reorder_side=h["reorder_side"],
            sched_addr=h["sched_addr"],
            sched_hit=h["sched_hit"],
            reorder=tuple(h["reorder"]),
            nreorder=h["nreorder"],
        )
        return cls(
            sti=STI(calls),
            pair=(payload["pair"][0], payload["pair"][1]),
            hint=hint,
            expected_title=payload["title"],
            patched=tuple(payload["patched"]),
        )

    def describe(self, image: Optional[KernelImage] = None) -> str:
        """Human-readable summary, resolving addresses when possible."""
        lines = [
            f"reproducer for: {self.expected_title}",
            f"input: {self.sti}",
            f"concurrent pair: {self.sti.calls[self.pair[0]].name} || "
            f"{self.sti.calls[self.pair[1]].name}",
            f"{self.hint.barrier_type} barrier test, reorder side {self.hint.reorder_side}",
        ]
        if image is not None:
            where = image.program.describe_addr
            lines.append(f"scheduling point: {where(self.hint.sched_addr)}")
            lines.append(
                "reordered accesses: " + ", ".join(where(a) for a in self.hint.reorder)
            )
        else:
            lines.append(f"scheduling point: {self.hint.sched_addr:#x}")
            lines.append(
                "reordered accesses: " + ", ".join(f"{a:#x}" for a in self.hint.reorder)
            )
        return "\n".join(lines)
