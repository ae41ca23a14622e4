"""Steadiness report: run workloads repeatedly and show each metric's spread.

Usage (from the repository root)::

    python3 ozzbench/spread.py [--workloads table3,steady,checkpointed]
        [--runs 10] [--first-seed 1] [--seconds S]
        [--save OUT.json] [--against EARLIER.json]

Each repetition runs every chosen workload once (seeds ``first-seed``,
``first-seed + 1``, ...), interleaving workloads so slow drifts of the
host hit them alike.  For every end-to-end metric the report prints the
median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound from BENCHMARK.json:

* ``steady``     — spread below a third of the bound;
* ``ok``         — spread within the bound;
* ``unresolved`` — spread wider than the bound: a change to this metric
  cannot be told from noise, so report it as unresolved, not unchanged.

``--save`` writes the raw per-run values; ``--against`` compares this
set's medians with a saved set and flags a metric whose median got worse
by more than its bound.  The exit code is 1 if any run failed, any
spread is unresolved or any median got worse than the saved set's by
more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

def _load_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    result["exit"] = proc.returncode
    if proc.returncode != 0:
        result["stderr"] = proc.stderr[-2000:]
    return result


def _spread(values: List[float]) -> Dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def _worse(now: float, before: float, better: str) -> float:
    """Relative worsening of ``now`` against ``before`` (negative = better)."""
    if not before:
        return 0.0
    change = (now - before) / before
    return change if better == "lower" else -change


def main(argv: List[str]) -> int:
    config = _load_config()
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(names)
    if unknown or args.runs < 2:
        parser.error(f"unknown workloads {sorted(unknown)} or fewer than 2 runs")
    metrics = config["end_to_end"]

    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
    failed = 0
    for i in range(args.runs):
        for workload in workloads:
            seed = args.first_seed + i
            result = _one_run(workload, seed, args.seconds)
            ok = result.get("exit") == 0 and result.get("correct") is True
            if not ok:
                failed += 1
                print(f"run {workload} seed {seed} FAILED: {result}", file=sys.stderr)
                continue
            for name, entry in result["metrics"].items():
                values[workload].setdefault(name, []).append(entry["value"])
            print(f"  {workload} seed {seed}: ok", file=sys.stderr, flush=True)

    before = {}
    if args.against:
        with open(args.against) as fh:
            before = json.load(fh)
    unresolved = 0
    print(f"{'workload':13s} {'metric':28s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s} verdict")
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            series = values[workload].get(name, [])
            if len(series) < 2:
                continue
            s = _spread(series)
            if s["spread"] < bound / 3:
                verdict = "steady"
            elif s["spread"] <= bound:
                verdict = "ok"
            else:
                verdict = "unresolved"
                unresolved += 1
            earlier = before.get(workload, {}).get(name)
            if earlier:
                drift = _worse(s["median"], statistics.median(earlier), metric["better"])
                verdict += f"  vs saved {drift:+.1%}"
                if drift > bound:
                    verdict += " WORSE"
                    unresolved += 1
            print(
                f"{workload:13s} {name:28s} {s['median']:12.6g} {s['q1']:12.6g} "
                f"{s['q3']:12.6g} {s['spread']:7.1%} {bound:6.2f} {verdict}"
            )
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(values, fh, indent=1)
    print(f"failed runs: {failed}")
    return 1 if failed or unresolved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
