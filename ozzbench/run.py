"""Campaign benchmark for the OZZ reproduction.

Usage (from the repository root)::

    python3 ozzbench/run.py --workload {table3,steady,checkpointed} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no tracing at all.
``--trace 1`` alternates untraced and traced rounds of the same
campaigns and reports the per-layer split (self time per layer, counts,
ratios) plus the tracing overhead, and writes the recorded spans to
``.benchwork/spans-<workload>.jsonl``.  Both modes check the campaigns'
outcomes; a violation makes ``correct`` false and the exit code 1.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  BENCHMARK.json
at the repository root lists every metric; NOTES.md says what each
workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Largest share of traced campaign wall time left outside every layer span.
COVERAGE_GATE = 0.05

#: Workloads whose traced split must pass the coverage gate.  The
#: ``checkpointed`` parent mostly waits on its workers, which no span covers.
GATED = ("table3", "steady")

#: Candidate tail percentiles for iteration latency, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

Metrics = Dict[str, Tuple[float, str]]


def _percentile(ordered: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def end_to_end(run) -> Metrics:
    """Per round of the workload's campaigns, untraced."""
    from campaigns import lower_quartile, median, per_spec, round_seconds

    samples = [s for s in run.samples if not s.traced]
    seconds = round_seconds(samples)
    tests = per_spec(samples, lambda s: s.result.stats.tests_run, median)
    return {
        "campaign_s": (seconds, "s"),
        "tests_per_s": (sum(tests.values()) / seconds, "1/s"),
        "setup_s": (median(run.setup), "s"),
        "peak_rss_mb": (max(per_spec(samples, lambda s: s.rss_mb, median).values()), "MB"),
        "bugs_found": (median(len(s.result.found_bug_ids) for s in samples), "count"),
        "coverage": (median(s.result.stats.coverage for s in samples), "count"),
        "resume_s": (lower_quartile(t for times in run.resumes for t in times), "s"),
    }


def per_layer(run) -> Metrics:
    """The traced split, per traced campaign unless the name says otherwise."""
    from campaigns import round_seconds

    tracer = run.tracer
    traced = [s for s in run.samples if s.traced]
    untraced = [s for s in run.samples if not s.traced]
    n = max(1, len(traced))
    self_s, calls, total_s = tracer.layer_split("campaign")
    resume_self, resume_calls, _ = tracer.layer_split("resume")
    counters: Dict[str, int] = {}
    for s in traced:
        for key, value in s.result.engine_counters.items():
            counters[key] = counters.get(key, 0) + value
    stats = [s.result.stats for s in traced]
    stis = sum(st.stis_run for st in stats)
    mtis = sum(st.mtis_run for st in stats)
    hints = sum(st.hints_computed for st in stats)
    pooled = run.workload.checkpointed or any(s.spec.jobs > 1 for s in traced)
    busy = sum(sh.seconds for s in traced for sh in s.result.shards) if pooled else 0.0
    capacity = sum(s.spec.jobs * s.seconds for s in traced)
    wall = total_s.get("campaign", 0.0)
    unattributed = self_s.get("campaign", 0.0)

    iterations = sorted(tracer.durations_ms("fuzzer.iteration"))
    tail_pct = next(
        (p for p in TAIL_PERCENTILES if len(iterations) * (100 - p) / 100 >= 10),
        50.0 if iterations else 0.0,
    )

    def layer(name: str) -> float:
        return self_s.get(name, 0.0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "kernel.image_build_s": (layer("kernel.image_build"), "s"),
        "kernel.image_builds": (calls.get("kernel.image_build", 0) / n, "count"),
        "kernel.boot_s": (layer("kernel.boot"), "s"),
        "kernel.boots": (counters.get("boots", 0) / n, "count"),
        "kernel.reset_s": (layer("kernel.reset"), "s"),
        "kernel.resets": (counters.get("resets", 0) / n, "count"),
        "kernel.dirty_pages_restored": (
            counters.get("dirty_pages_restored", 0) / n,
            "count",
        ),
        "sti.profile_s": (layer("sti.profile"), "s"),
        "sti.runs": (stis / n, "count"),
        "sti.hang_s": (tracer.counts.get("sti.hang_s", 0.0) / n, "s"),
        "hints.calculate_s": (layer("hints.calculate"), "s"),
        "hints.computed": (hints / n, "count"),
        "hints.used_ratio": (ratio(mtis, hints), "ratio"),
        "mti.run_s": (layer("mti.run"), "s"),
        "mti.runs": (mtis / n, "count"),
        "mti.crash_ratio": (
            ratio(tracer.counts.get("mti.crashed", 0), calls.get("mti.run", 0)),
            "ratio",
        ),
        "mti.hangs": (sum(st.hangs for st in stats) / n, "count"),
        "prefix.prime_s": (layer("prefix.prime"), "s"),
        "prefix.position_s": (layer("prefix.position"), "s"),
        "prefix.snapshots": (counters.get("prefix_snapshots", 0) / n, "count"),
        "prefix.hits": (counters.get("prefix_hits", 0) / n, "count"),
        "prefix.calls_skipped": (counters.get("calls_skipped", 0) / n, "count"),
        "kir.promotions": (counters.get("promotions", 0) / n, "count"),
        "kir.codegen_cache_misses": (
            counters.get("codegen_cache_misses", 0) / n,
            "count",
        ),
        "triage.add_s": (layer("triage.add"), "s"),
        "reproducer.from_result_s": (layer("reproducer.from_result"), "s"),
        "replayer.record_s": (layer("replayer.record"), "s"),
        "replayer.artifacts": (calls.get("replayer.record", 0) / n, "count"),
        "generator.next_sti_s": (layer("generator.next_sti"), "s"),
        "corpus.consider_s": (layer("corpus.consider"), "s"),
        "corpus.keep_ratio": (
            ratio(tracer.counts.get("corpus.kept", 0), calls.get("corpus.consider", 0)),
            "ratio",
        ),
        "fuzzer.loop_s": (layer("fuzzer.iteration"), "s"),
        "fuzzer.iteration_p50_ms": (
            _percentile(iterations, 50.0) if iterations else 0.0,
            "ms",
        ),
        "fuzzer.iteration_tail_ms": (
            _percentile(iterations, tail_pct) if iterations else 0.0,
            "ms",
        ),
        "fuzzer.iteration_tail_pct": (tail_pct, "%"),
        "fuzzer.iteration_samples": (len(iterations), "count"),
        "parallel.run_batch_s": (layer("parallel.run_batch"), "s"),
        "parallel.merge_s": (layer("parallel.merge"), "s"),
        "supervisor.checkpoint_s": (layer("supervisor.checkpoint"), "s"),
        "supervisor.checkpoints": (
            calls.get("supervisor.checkpoint", 0) / n,
            "count",
        ),
        "supervisor.checkpoint_bytes": (
            tracer.counts.get("supervisor.checkpoint_bytes", 0) / n,
            "bytes",
        ),
        "supervisor.parent_cpu_s": (
            sum(s.cpu_seconds for s in traced) / n if pooled else 0.0,
            "s",
        ),
        "supervisor.busy_s": (busy / n, "s"),
        "supervisor.pool_efficiency": (ratio(busy, capacity), "ratio"),
        "supervisor.load_checkpoint_s": (
            ratio(
                resume_self.get("supervisor.load_checkpoint", 0.0),
                resume_calls.get("resume", 0),
            ),
            "s",
        ),
        "trace.unattributed_s": (unattributed / n, "s"),
        "trace.unattributed_frac": (ratio(unattributed, wall), "ratio"),
        "trace.overhead": (
            ratio(round_seconds(traced), round_seconds(untraced)),
            "ratio",
        ),
    }


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("table3", "steady", "checkpointed")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "campaign_api.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from campaigns import WORKLOADS, Runner
    from tracer import Tracer

    workroot = os.path.join(ROOT, ".benchwork")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot)
    tracer = Tracer() if args.trace else None
    try:
        run = Runner(WORKLOADS[args.workload], workdir, tracer).measure(
            args.seed, args.seconds
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is None:
            try:
                os.rmdir(workroot)  # only if no concurrent run or spans use it
            except OSError:
                pass

    metrics = per_layer(run) if tracer is not None else end_to_end(run)
    if tracer is not None:
        frac = metrics["trace.unattributed_frac"][0]
        if args.workload in GATED and frac > COVERAGE_GATE:
            run.fail(
                f"layer spans cover only {1 - frac:.1%} of traced wall time "
                f"(gate {1 - COVERAGE_GATE:.0%})"
            )
        spans = os.path.join(workroot, f"spans-{args.workload}.jsonl")
        tracer.dump(spans)
        print(f"# spans written to {os.path.relpath(spans, ROOT)}")

    failed_frac = run.failed_campaigns / max(1, run.attempted)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(f"{'failed_frac':32s} {failed_frac:14.6f} ratio")
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    correct = not run.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed_campaigns,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
