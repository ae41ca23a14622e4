"""Crash triage: deduplication by title and bug-registry matching.

OZZ dedupes crashes by title (as Syzkaller does) and — because the
seeded corpus is ground truth here — maps titles back to
:class:`~repro.kernel.bugs.BugSpec` rows so the Table 3 / Table 4
benchmarks can report which paper bugs were (re)found.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional

from repro.kernel import bugs
from repro.oracles.report import CrashReport


@dataclass
class CrashRecord:
    """All occurrences of one unique crash title."""

    title: str
    first_report: CrashReport
    count: int = 1
    first_test_index: int = 0     # the test number that first hit it
    bug_id: Optional[str] = None  # registry match, if any
    reproducer: object = None     # repro.fuzzer.reproducer.Reproducer
    artifact: object = None       # repro.trace.replayer.CrashArtifact


#: Crash title -> seeded bug id.  The registry is complete once
#: ``repro.kernel.bugs`` is imported, so the table is built once per
#: process, not per database.
_TITLE_TO_BUG: Dict[str, str] = {spec.title: spec.bug_id for spec in bugs.all_bugs()}


class CrashDB:
    """Unique-crash database keyed by title."""

    def __init__(self) -> None:
        self.records: Dict[str, CrashRecord] = {}

    def add(self, report: CrashReport, test_index: int = 0) -> CrashRecord:
        record = self.records.get(report.title)
        if record is None:
            record = CrashRecord(
                title=report.title,
                first_report=report,
                first_test_index=test_index,
                bug_id=_TITLE_TO_BUG.get(report.title),
            )
            self.records[report.title] = record
        else:
            record.count += 1
        return record

    @classmethod
    def merge_all(cls, dbs: Iterable["CrashDB"]) -> "CrashDB":
        """Combine shards' crash databases, in order, into a new one.

        One pass over every record.  Occurrence counts sum, and
        first-finder attribution is preserved: the merged record is the
        one with the *minimum* ``first_test_index`` (ties break toward
        the earlier database), so Table 3/4 tests-to-trigger numbers stay
        meaningful after a sharded campaign.  When the winning record has
        no reproducer or artifact, it keeps the one merged so far (or
        takes the loser's).  The inputs are left untouched.
        """
        out = cls()
        merged = out.records
        for db in dbs:
            for title, rec in db.records.items():
                cur = merged.get(title)
                if cur is None:
                    merged[title] = replace(rec)
                elif rec.first_test_index < cur.first_test_index:
                    merged[title] = replace(
                        rec,
                        count=cur.count + rec.count,
                        reproducer=(
                            cur.reproducer if rec.reproducer is None else rec.reproducer
                        ),
                        artifact=cur.artifact if rec.artifact is None else rec.artifact,
                    )
                else:
                    cur.count += rec.count
                    if cur.reproducer is None:
                        cur.reproducer = rec.reproducer
                    if cur.artifact is None:
                        cur.artifact = rec.artifact
        return out

    def merge(self, other: "CrashDB") -> "CrashDB":
        """``merge_all((self, other))``: pure and associative."""
        return CrashDB.merge_all((self, other))

    # -- checkpoint serialization ------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON-safe payload for campaign checkpoints.

        Each record stores its report, reproducer and schedule artifact
        (reproducer and artifact through their ``to_dict`` payloads), so
        a crash database survives a supervisor restart with its replay
        material intact.  What a record shares is stored once: a report
        whose schedule *is* its artifact's omits it
        (``"shares_schedule"``), and an artifact whose reproducer equals
        the record's omits that (``"shares_reproducer"``);
        :meth:`from_json_dict` links both back to one object.
        """
        records = []
        for title in self.unique_titles:
            rec = self.records[title]
            report = rec.first_report.to_dict()
            artifact = None
            shares_schedule = shares_reproducer = False
            if rec.artifact is not None:
                artifact = rec.artifact.to_dict()
                if rec.first_report.schedule is rec.artifact.schedule:
                    shares_schedule = True
                    report["schedule"] = None
                if rec.reproducer is not None and rec.reproducer == rec.artifact.reproducer:
                    shares_reproducer = True
                    artifact["reproducer"] = None
            records.append(
                {
                    "title": rec.title,
                    "count": rec.count,
                    "first_test_index": rec.first_test_index,
                    "bug_id": rec.bug_id,
                    "first_report": report,
                    "reproducer": (
                        rec.reproducer.to_dict() if rec.reproducer is not None else None
                    ),
                    "artifact": artifact,
                    "shares_schedule": shares_schedule,
                    "shares_reproducer": shares_reproducer,
                }
            )
        return {"records": records}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CrashDB":
        # Lazy imports: the reproducer pulls in the kernel layers.
        from repro.fuzzer.reproducer import Reproducer
        from repro.trace.replayer import CrashArtifact

        db = cls()
        for r in payload["records"]:
            rec = CrashRecord(
                title=r["title"],
                first_report=CrashReport.from_dict(r["first_report"]),
                count=r["count"],
                first_test_index=r["first_test_index"],
                bug_id=r["bug_id"],
            )
            if r["reproducer"] is not None:
                rec.reproducer = Reproducer.from_dict(r["reproducer"])
            if r["artifact"] is not None:
                shared = rec.reproducer if r["shares_reproducer"] else None
                rec.artifact = CrashArtifact.from_dict(r["artifact"], shared)
                if r["shares_schedule"]:
                    rec.first_report.schedule = rec.artifact.schedule
            db.records[rec.title] = rec
        return db

    @property
    def unique_titles(self) -> List[str]:
        return sorted(self.records)

    def found_bug_ids(self) -> List[str]:
        return sorted(r.bug_id for r in self.records.values() if r.bug_id)

    def found_table3(self) -> List[str]:
        t3 = {b.bug_id for b in bugs.table3_bugs()}
        return [b for b in self.found_bug_ids() if b in t3]

    def found_table4(self) -> List[str]:
        t4 = {b.bug_id for b in bugs.table4_bugs()}
        return [b for b in self.found_bug_ids() if b in t4]

    def summary(self) -> str:
        lines = [f"{len(self.records)} unique crash titles:"]
        for title in self.unique_titles:
            rec = self.records[title]
            tag = f" [{rec.bug_id}]" if rec.bug_id else ""
            lines.append(f"  x{rec.count:<4d} {title}{tag}")
        return "\n".join(lines)
