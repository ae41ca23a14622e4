"""ExecTrace bus overhead — the no-op sink must stay under 5%.

Every retired instruction passes the bus's dispatch point
(``Interpreter.step``), so the hot-path budget is explicit: with the
default :data:`~repro.trace.sink.NULL_SINK` attached, the dispatch costs
one attribute load and a falsy branch per step — no event object is
ever constructed.

The A/B drives both sides through ``step()`` on the decoded engine: the
shipped interpreter (NULL_SINK attached) against a
``_BaselineInterpreter`` whose ``step`` is the shipped body minus its
trace lines.  Both sides take turns within each of nine rounds, and
the gate judges the median of the rounds' paired ratios (null-sink time
over baseline time of the same round), so a host whose speed drifts
between rounds moves both sides of every ratio alike.  The workload is
the most adversarial one: a tight arithmetic + load/store loop where
per-step dispatch is the largest possible fraction of the work.  Real
fuzzing workloads (syscalls, OEMU callbacks, oracles) only dilute the
ratio further.

Informational numbers for the recording sinks (ring recorder, metrics)
ride along, and everything lands in
``benchmarks/artifacts/trace_overhead.json``.
"""

from __future__ import annotations

import gc
import json
import os
import time

from repro.errors import ExecutionLimitExceeded
from repro.kir import Builder, Program
from repro.kir.interp import HelperRetry, Interpreter
from repro.machine import Machine
from repro.mem.memory import DATA_BASE
from repro.oemu.instrument import instrument_program
from repro.trace import TeeSink, TraceMetrics, TraceRecorder

ARTIFACT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "artifacts", "trace_overhead.json"
)

LOOP_ITERS = 15_000   # ~6 instructions per iteration, well under fuel
ROUNDS = 9            # the gate judges the median of the rounds' ratios
OVERHEAD_BUDGET = 0.05
#: Steps one side runs before the other takes over (about a millisecond).
#: A shared host's speed drifts by tens of percent over tenths of a
#: second, so the two sides take turns this often to see the same drift.
CHUNK = 500


class _BaselineInterpreter(Interpreter):
    """``Interpreter.step`` with its trace lines removed: the A side of
    the A/B.  Keep it in step with the shipped body."""

    def step(self, thread):
        if thread.finished:
            return False
        if thread.fuel <= 0:
            raise ExecutionLimitExceeded(
                f"thread {thread.thread_id} exceeded fuel in {thread.current_function}"
            )
        thread.fuel -= 1
        thread.steps += 1
        frame = thread.frames[-1]
        index = frame.index
        kcov = self._kcov
        if kcov is not None:
            kcov.on_insn(thread.thread_id, frame.function.insns[index].addr)
        ops = frame.ops
        if ops is None:
            func = frame.function
            ops = self._codes.get(id(func))
            if ops is None:
                ops = self._bound.bind_function(func)
            frame.ops = ops
        try:
            advance = ops[index](thread, frame)
        except HelperRetry:
            return True
        if advance and not thread.finished and thread.frames and thread.frames[-1] is frame:
            frame.index += 1
        return not thread.finished


def _loop_program() -> Program:
    """A tight loop: store, load, two adds, compare-branch per iteration."""
    b = Builder("spin", params=["n"])
    i = b.mov(0)
    acc = b.mov(0)
    top = b.label()
    b.bind(top)
    b.store(DATA_BASE, 0, i)
    v = b.load(DATA_BASE, 0)
    b.add(acc, v, dst=acc)
    b.add(i, 1, dst=i)
    b.blt(i, b.reg("n"), top)
    b.ret(acc)
    prog, _ = instrument_program(Program([b.function()]))
    return prog


PROGRAM = _loop_program()
EXPECTED = sum(range(LOOP_ITERS))


def _time_round(sides) -> list:
    """Step each side's loop to completion, the sides taking turns
    ``CHUNK`` steps at a time (the first side alternates), and return
    each side's total time.  Every instruction goes through ``step()``,
    never the unobserved run-to-completion loop.  Building the machines
    stays outside the timer, and the garbage collector is paused."""
    runs = []
    for make_machine in sides:
        m = make_machine()
        runs.append((m.interp.step, m.spawn("spin", (LOOP_ITERS,))))
    totals = [0.0] * len(runs)
    pending = list(range(len(runs)))
    gc.collect()
    gc.disable()
    try:
        while pending:
            pending.reverse()
            for side in list(pending):
                step, thread = runs[side]
                t0 = time.perf_counter()
                for _ in range(CHUNK):
                    if not step(thread):
                        pending.remove(side)
                        break
                totals[side] += time.perf_counter() - t0
    finally:
        gc.enable()
    for _, thread in runs:
        assert thread.retval == EXPECTED
    return totals


def _null_machine() -> Machine:
    return Machine(PROGRAM)  # default sink: NULL_SINK


def _baseline_machine() -> Machine:
    m = Machine(PROGRAM)
    m.interp = _BaselineInterpreter(m)
    return m


def test_null_sink_overhead_under_budget():
    """The perf gate: NULL_SINK dispatch costs < 5% of an untraced step()."""
    sides = (_baseline_machine, _null_machine)
    _time_round(sides)  # warm up both paths (bytecode caches, allocator pools)
    # Each round's ratio pairs two times taken in the same stretch of a
    # drifting host; the minimum of each side could come from different
    # moments, so the gate takes the median of the paired ratios.
    rounds = [_time_round(sides) for _ in range(ROUNDS)]
    ratios = sorted(null_s / base_s for base_s, null_s in rounds)
    overhead = ratios[ROUNDS // 2] - 1.0
    baseline = min(base_s for base_s, _ in rounds)
    nullsink = min(null_s for _, null_s in rounds)

    # Informational: what attaching a real sink costs on the same loop.
    recorder = TraceRecorder()
    metrics = TraceMetrics()
    rec_time, met_time, tee_time = _time_round(
        (
            lambda: Machine(PROGRAM, trace=recorder),
            lambda: Machine(PROGRAM, trace=metrics),
            lambda: Machine(PROGRAM, trace=TeeSink([TraceRecorder(), TraceMetrics()])),
        )
    )

    # store + load + 2 adds + branch retire per iteration; 2 movs + ret outside.
    steps = LOOP_ITERS * 5 + 3
    artifact = {
        "workload": {
            "description": "tight store/load/add loop (adversarial for dispatch)",
            "loop_iters": LOOP_ITERS,
            "approx_steps": steps,
            "rounds": ROUNDS,
            "chunk_steps": CHUNK,
        },
        "baseline_untraced_step_s": baseline,
        "null_sink_s": nullsink,
        "round_ratios": ratios,
        "null_sink_overhead": overhead,
        "budget": OVERHEAD_BUDGET,
        "sinks": {
            "recorder_s": rec_time,
            "recorder_slowdown": rec_time / baseline,
            "metrics_s": met_time,
            "metrics_slowdown": met_time / baseline,
            "tee_recorder_metrics_s": tee_time,
            "tee_slowdown": tee_time / baseline,
        },
        "metrics_sample": metrics.to_json_dict(),
    }
    os.makedirs(os.path.dirname(ARTIFACT_PATH), exist_ok=True)
    with open(ARTIFACT_PATH, "w") as fh:
        json.dump(artifact, fh, indent=2)

    print(
        f"\nno-op sink: {overhead:+.2%} vs step() without trace lines "
        f"(budget {OVERHEAD_BUDGET:.0%}); recorder {rec_time / baseline:.2f}x, "
        f"metrics {met_time / baseline:.2f}x, tee {tee_time / baseline:.2f}x"
    )
    print(f"wrote {ARTIFACT_PATH}")

    # The recording sinks really consumed the stream.
    assert recorder.index >= steps
    assert metrics.events_by_kind["step"] >= steps
    assert overhead < OVERHEAD_BUDGET, (
        f"NULL_SINK dispatch overhead {overhead:.2%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} budget"
    )
