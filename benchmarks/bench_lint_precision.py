"""KIRA v2 precision gate: seeded-bug recall + false-positive budget.

The interprocedural race engine runs over the whole built-in kernel with
zero executions and is scored two ways:

* **Recall** — every seeded bug's subsystem must carry at least one
  non-benign race finding (the engine may not lose a bug the previous
  revision flagged).
* **Precision** — every finding's *fingerprint* (subsystem,
  classification, writer site, other site, abstract location) must
  appear in the committed baseline
  (``benchmarks/artifacts/lint_baseline.json``).  A fingerprint not in
  the baseline is a new unsuppressed finding: either a genuine
  regression in the analysis or a new true positive — both require a
  human to re-bless the baseline (edit the JSON) rather than silently
  shifting the precision floor.

Wall-clock for the full pipeline is recorded too; the engine is a
build-time step (strict lint mode), so it must stay interactive.

Run standalone (``python benchmarks/bench_lint_precision.py [--quick]``),
with ``--rebaseline`` to regenerate the committed baseline, or under
pytest where the collected tests enforce the gate in CI.  The run
writes ``benchmarks/artifacts/lint_precision.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.analysis.barriers import static_reordering_candidates
from repro.analysis.races import analyze_races
from repro.config import KernelConfig
from repro.kernel import bugs
from repro.kernel.kernel import KernelImage

ARTIFACT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "artifacts")
BASELINE_PATH = os.path.join(ARTIFACT_DIR, "lint_baseline.json")
ARTIFACT_PATH = os.path.join(ARTIFACT_DIR, "lint_precision.json")

#: build-time budget for the whole interprocedural pipeline (seconds);
#: generous — the measured time is ~0.3s — but catches complexity blowups.
WALL_CLOCK_BUDGET = 30.0


def fingerprint(finding) -> str:
    w, o = finding.writer, finding.other
    return "|".join(
        [
            finding.subsystem,
            finding.classification,
            f"{w.function}[{w.index}]",
            f"{o.function}[{o.index}]",
            finding.location,
        ]
    )


def run_engine():
    """Build the kernel image and run the race engine; returns
    (races, seconds)."""
    image = KernelImage(KernelConfig(instrumented=False))
    start = time.perf_counter()
    report = analyze_races(
        image.plain_program,
        owner=image.function_owner,
        roots=image.syscall_roots(),
        regions=image.global_regions(),
        candidates=static_reordering_candidates(image.plain_program),
    )
    seconds = time.perf_counter() - start
    return report.races(), seconds


def score(races, baseline):
    bug_subsystems = {b.subsystem for b in bugs.all_bugs()}
    flagged = {r.subsystem for r in races}
    missed = sorted(bug_subsystems - flagged)
    current = {fingerprint(r) for r in races}
    allowed = set(baseline["fingerprints"])
    new = sorted(current - allowed)
    fixed = sorted(allowed - current)
    fps = [r for r in races if r.subsystem not in bug_subsystems]
    return {
        "bug_subsystems": len(bug_subsystems),
        "flagged_bug_subsystems": len(bug_subsystems & flagged),
        "missed_subsystems": missed,
        "findings": len(races),
        "false_positives": len(fps),
        "new_findings": new,
        "fixed_findings": fixed,
    }


def load_baseline():
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


def write_artifact(summary, seconds):
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    payload = dict(summary)
    payload["seconds"] = round(seconds, 3)
    with open(ARTIFACT_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return payload


def rebaseline():
    races, seconds = run_engine()
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    payload = {
        "version": 1,
        "findings": len(races),
        "fingerprints": sorted({fingerprint(r) for r in races}),
    }
    with open(BASELINE_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {BASELINE_PATH} ({len(races)} findings, {seconds:.2f}s)")


# -- pytest entry points ----------------------------------------------------


def test_lint_precision_gate():
    races, seconds = run_engine()
    summary = score(races, load_baseline())
    write_artifact(summary, seconds)

    assert not summary["missed_subsystems"], (
        f"race engine lost seeded-bug subsystems: {summary['missed_subsystems']}"
    )
    assert not summary["new_findings"], (
        "new unsuppressed findings (rebless with --rebaseline if intended):\n  "
        + "\n  ".join(summary["new_findings"][:20])
    )
    assert seconds < WALL_CLOCK_BUDGET


def test_every_finding_has_witness():
    races, _ = run_engine()
    for race in races:
        assert race.writer.witness and race.other.witness


# -- standalone -------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="skip the witness sweep")
    parser.add_argument("--rebaseline", action="store_true",
                        help="regenerate the committed baseline")
    args = parser.parse_args()
    if args.rebaseline:
        rebaseline()
        return 0
    races, seconds = run_engine()
    summary = score(races, load_baseline())
    payload = write_artifact(summary, seconds)
    print(json.dumps(payload, indent=2))
    ok = (
        not summary["missed_subsystems"]
        and not summary["new_findings"]
        and seconds < WALL_CLOCK_BUDGET
    )
    if not args.quick:
        for race in races:
            ok = ok and bool(race.writer.witness and race.other.witness)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
