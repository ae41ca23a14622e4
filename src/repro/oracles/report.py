"""Crash reports.

Reports carry the paper-style crash *title* (used for deduplication, as
Syzkaller does) plus the structured context OZZ adds for OOO bugs: the
reordered instruction addresses and the hypothetical memory barrier
location (§4.4 "OZZ files up a report of memory accesses that were
reordered as well as the hypothetical memory barrier").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass
class CrashReport:
    """A bug-oracle firing, formatted like a kernel crash."""

    title: str
    oracle: str                       # "kasan" | "fault" | "lockdep" | ...
    function: str                     # function the crash manifested in
    inst_addr: int = 0
    detail: str = ""
    # OOO-bug context, attached by the MTI executor when reordering was active:
    reordered_insns: Tuple[int, ...] = ()
    hypothetical_barrier: Optional[int] = None
    barrier_test: str = ""            # "store" | "load" | ""
    source_context: str = ""
    # ExecTrace context, attached when the run was traced:
    event_index: Optional[int] = None  # bus index at which the oracle fired
    schedule: Optional[dict] = None    # recorded schedule artifact (schema v1)

    def to_dict(self) -> dict:
        """JSON-safe payload; :meth:`from_dict` round-trips it exactly.

        Used by the campaign checkpoint (``repro fuzz --checkpoint-dir``)
        to persist crash databases across supervisor restarts.
        """
        return {
            "title": self.title,
            "oracle": self.oracle,
            "function": self.function,
            "inst_addr": self.inst_addr,
            "detail": self.detail,
            "reordered_insns": list(self.reordered_insns),
            "hypothetical_barrier": self.hypothetical_barrier,
            "barrier_test": self.barrier_test,
            "source_context": self.source_context,
            "event_index": self.event_index,
            "schedule": self.schedule,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CrashReport":
        return cls(
            title=payload["title"],
            oracle=payload["oracle"],
            function=payload["function"],
            inst_addr=payload.get("inst_addr", 0),
            detail=payload.get("detail", ""),
            reordered_insns=tuple(payload.get("reordered_insns", ())),
            hypothetical_barrier=payload.get("hypothetical_barrier"),
            barrier_test=payload.get("barrier_test", ""),
            source_context=payload.get("source_context", ""),
            event_index=payload.get("event_index"),
            schedule=payload.get("schedule"),
        )

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = [self.title]
        if self.detail:
            lines.append(self.detail)
        if self.inst_addr:
            lines.append(f"crashing instruction: {self.inst_addr:#x}")
        if self.event_index is not None:
            lines.append(f"trace event index: {self.event_index}")
        if self.hypothetical_barrier is not None:
            lines.append(
                f"hypothetical {self.barrier_test} barrier at {self.hypothetical_barrier:#x}"
            )
            lines.append(
                "reordered accesses: "
                + ", ".join(f"{a:#x}" for a in self.reordered_insns)
            )
        if self.source_context:
            lines.append(self.source_context)
        return "\n".join(lines)


def null_deref_title(function: str, is_write: bool) -> str:
    """Crash title for a NULL-page fault, matching Table 3's two styles."""
    if is_write:
        return f"KASAN: null-ptr-deref Write in {function}"
    return f"BUG: unable to handle kernel NULL pointer dereference in {function}"


def gpf_title(function: str) -> str:
    return f"general protection fault in {function}"


def stack_overflow_title(function: str) -> str:
    """Crash title for a call that overran the kernel stack."""
    return f"BUG: stack guard page was hit in {function}"


def kasan_title(kind: str, is_write: bool, function: str) -> str:
    rw = "Write" if is_write else "Read"
    return f"KASAN: {kind} {rw} in {function}"


def lockdep_title(kind: str, function: str) -> str:
    return f"WARNING: {kind} in {function}"


def assertion_title(function: str) -> str:
    return f"kernel BUG at {function}"
