"""Tests for the ExecTrace event bus (events, sinks, recorder, metrics)."""

import pytest

from repro.kir import Builder, Program
from repro.kir.insn import Load, Store
from repro.machine import ExecutionMachine, Machine
from repro.mem.memory import DATA_BASE
from repro.oemu.instrument import instrument_program
from repro.sched import BarrierTestExecutor
from repro.trace import (
    NULL_SINK,
    BatchClaimed,
    BatchStolen,
    BreakpointHit,
    BufferFlush,
    CheckpointWritten,
    InputQuarantined,
    InterruptInjected,
    NullSink,
    OracleFired,
    PhaseBegin,
    ShardHeartbeat,
    ShardRetried,
    ShardStarted,
    Step,
    StoreDelayed,
    SyscallEnter,
    SyscallExit,
    TeeSink,
    TraceMetrics,
    TraceNote,
    TraceRecorder,
    TraceSink,
    VersionedLoad,
    WindowReset,
    event_from_dict,
    event_kinds,
)

A = DATA_BASE + 0x00
B = DATA_BASE + 0x08
C = DATA_BASE + 0x10
D = DATA_BASE + 0x18

#: One concrete instance per registered kind, used for round-trip tests.
SAMPLE_EVENTS = {
    "step": Step(1, 64),
    "store-delayed": StoreDelayed(1, 64, DATA_BASE, 8),
    "buffer-flush": BufferFlush(1, 3, "barrier"),
    "versioned-load": VersionedLoad(2, 68, DATA_BASE, 8, True),
    "window-reset": WindowReset(1, 7),
    "interrupt": InterruptInjected(1),
    "breakpoint-hit": BreakpointHit(1, 64, "after", 1),
    "phase": PhaseBegin("observer", "store"),
    "syscall-enter": SyscallEnter(1, "pipe_read"),
    "syscall-exit": SyscallExit(1, "pipe_read"),
    "oracle-report": OracleFired("KASAN: slab-out-of-bounds Read in f", "kasan", 96),
    "note": TraceNote("source-context unavailable"),
    "shard-start": ShardStarted(1, 10001, 0),
    "shard-heartbeat": ShardHeartbeat(1, 4),
    "shard-retry": ShardRetried(1, 0, "hung"),
    "batch-claim": BatchClaimed(0, 1, 0),
    "batch-steal": BatchStolen(1, 2, 0, 1),
    "shard-quarantine": InputQuarantined(1, 4, 2),
    "checkpoint": CheckpointWritten(1),
}


def figure5a_machine(trace=NULL_SINK):
    w = Builder("cpu1")
    w.store(A, 0, 1)
    w.store(B, 0, 1)
    w.store(C, 0, 1)
    w.store(D, 0, 1)
    w.ret()
    r = Builder("cpu2")
    rd = r.load(D, 0)
    ra = r.load(A, 0)
    rb = r.load(B, 0)
    rc = r.load(C, 0)
    s = r.mul(rd, 1000)
    t = r.mul(ra, 100)
    u = r.mul(rb, 10)
    acc = r.add(s, t)
    acc = r.add(acc, u)
    acc = r.add(acc, rc)
    r.ret(acc)
    prog, _ = instrument_program(Program([w.function(), r.function()]))
    return Machine(prog, trace=trace)


def run_store_test(m, inject_interrupt=False):
    ex = BarrierTestExecutor(m)
    stores = [i for i in m.program.function("cpu1").insns if isinstance(i, Store)]
    victim = m.spawn("cpu1", cpu=0)
    observer = m.spawn("cpu2", cpu=1)
    outcome = ex.run_store_test(
        victim, observer, sched_addr=stores[3].addr,
        reorder_addrs=[s.addr for s in stores[:3]],
        inject_interrupt=inject_interrupt,
    )
    return outcome


class TestEvents:
    @pytest.mark.parametrize("kind", sorted(SAMPLE_EVENTS))
    def test_round_trip_is_exact(self, kind):
        event = SAMPLE_EVENTS[kind]
        payload = event.to_dict()
        assert payload["kind"] == kind
        assert event_from_dict(payload) == event

    def test_every_registered_kind_has_a_sample(self):
        assert set(event_kinds()) == set(SAMPLE_EVENTS)

    def test_unknown_keys_are_ignored(self):
        payload = Step(1, 64).to_dict()
        payload["i"] = 17  # the recorder's index annotation
        assert event_from_dict(payload) == Step(1, 64)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"kind": "bogus"})

    def test_events_are_immutable(self):
        with pytest.raises(Exception):
            SAMPLE_EVENTS["step"].addr = 1


class TestSinks:
    def test_null_sink_is_inactive(self):
        assert NULL_SINK.active is False
        NULL_SINK.emit(Step(1, 64))  # harmless even unguarded
        assert NULL_SINK.index == 0

    def test_machine_defaults_to_null_sink(self):
        m = figure5a_machine()
        assert isinstance(m.trace, NullSink)
        run_store_test(m)  # no recording, still works

    def test_sinks_satisfy_protocol(self):
        for sink in (NULL_SINK, TraceRecorder(), TraceMetrics(), TeeSink([])):
            assert isinstance(sink, TraceSink)

    def test_machine_satisfies_execution_protocol(self):
        assert isinstance(figure5a_machine(), ExecutionMachine)

    def test_tee_fans_out_and_skips_inactive(self):
        a, b = TraceRecorder(), TraceMetrics()
        tee = TeeSink([a, NULL_SINK, b])
        assert len(tee.sinks) == 2
        tee.emit(Step(1, 64))
        assert tee.index == 1 and a.index == 1 and b.index == 1


class TestRecorder:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(0)

    def test_ring_is_bounded_and_counts_drops(self):
        rec = TraceRecorder(4)
        for n in range(10):
            rec.emit(Step(1, n))
        assert rec.index == 10 and len(rec) == 4
        assert rec.dropped == 6
        assert [e.addr for e in rec.events()] == [6, 7, 8, 9]
        assert [i for i, _ in rec.indexed_events()] == [6, 7, 8, 9]

    def test_schedule_dict_shape(self):
        rec = TraceRecorder(8)
        rec.emit(Step(1, 64))
        rec.emit(BufferFlush(1, 2, "barrier"))
        sched = rec.schedule_dict()
        assert sched["version"] == 1
        assert sched["capacity"] == 8
        assert sched["dropped"] == 0
        assert sched["n_events"] == 2
        assert sched["events"][0] == dict(Step(1, 64).to_dict(), i=0)
        assert sched["events"][1]["kind"] == "buffer-flush"


class TestBusIntegration:
    """The stack emits the right events during a Figure 5a run."""

    def test_store_test_event_stream(self):
        rec = TraceRecorder()
        m = figure5a_machine(trace=rec)
        outcome = run_store_test(m)
        assert outcome.observer_ret == 1000
        kinds = [e.kind for e in rec.events()]
        # All three delayed stores parked, then drained by the implicit
        # full barrier when the victim returns to userspace.
        assert kinds.count("store-delayed") == 3
        assert any(
            e.kind == "buffer-flush" and e.count == 3 and e.reason == "syscall-exit"
            for e in rec.events()
        )
        # The scheduler suspended the victim at its scheduling point.
        hits = [e for e in rec.events() if e.kind == "breakpoint-hit"]
        assert len(hits) == 1 and hits[0].policy == "after"
        # Executor phases, in order.
        phases = [e.name for e in rec.events() if e.kind == "phase"]
        assert phases == ["victim-to-sched", "observer", "victim-resume", "finish"]
        # Every retired instruction produced a step event.
        threads = {e.thread for e in rec.events() if e.kind == "step"}
        assert threads == {1, 2}

    def test_load_test_emits_versioned_loads(self):
        rec = TraceRecorder()
        m = figure5a_machine(trace=rec)
        ex = BarrierTestExecutor(m)
        loads = [i for i in m.program.function("cpu2").insns if isinstance(i, Load)]
        victim = m.spawn("cpu2", cpu=0)
        observer = m.spawn("cpu1", cpu=1)
        outcome = ex.run_load_test(
            victim, observer, loads[0].addr, [l.addr for l in loads[1:]]
        )
        assert outcome.victim_ret == 1000
        versioned = [e for e in rec.events() if e.kind == "versioned-load"]
        assert len(versioned) == 3 and all(e.stale for e in versioned)

    def test_interrupt_injection_emits_and_flushes(self):
        rec = TraceRecorder()
        m = figure5a_machine(trace=rec)
        outcome = run_store_test(m, inject_interrupt=True)
        # §3.1: the interrupt flushed the buffer, so the reordering
        # evaporated and the observer saw program order.
        assert outcome.observer_ret == 1111
        events = rec.events()
        irq = next(i for i, e in enumerate(events) if e.kind == "interrupt")
        assert events[irq].thread == 1
        flush = events[irq + 1]
        assert flush.kind == "buffer-flush" and flush.reason == "interrupt"
        assert flush.count == 3


class TestMetrics:
    def test_aggregates_from_store_test(self):
        metrics = TraceMetrics()
        m = figure5a_machine(trace=metrics)
        run_store_test(m)
        assert metrics.breakpoint_hits == 1
        # Steps attributed to each executor phase.
        assert set(metrics.steps_by_phase) >= {"victim-to-sched", "observer"}
        assert all(v > 0 for v in metrics.steps_by_phase.values())
        # Occupancy climbed to 3 pending stores, then flushed to 0.
        assert set(metrics.occupancy_histogram) >= {0, 1, 2, 3}
        split = metrics.overhead_split()
        assert split["interp"] == metrics.events_by_kind["step"]
        assert split["oemu"] >= 4  # 3 delays + >= 1 flush
        js = metrics.to_json_dict()
        assert js["events"] == metrics.index
        assert js["breakpoint_hits"] == 1
        assert js["occupancy_histogram"]["3"] >= 1

    def test_tee_records_and_measures_in_one_run(self):
        rec, metrics = TraceRecorder(), TraceMetrics()
        m = figure5a_machine(trace=TeeSink([rec, metrics]))
        run_store_test(m)
        assert rec.index == metrics.index > 0


class TestKernelBoundary:
    def test_syscall_enter_exit_events(self):
        from repro.config import KernelConfig
        from repro.kernel.kernel import Kernel, KernelImage

        rec = TraceRecorder()
        kernel = Kernel(KernelImage(KernelConfig()), trace=rec)
        kernel.run_syscall("getpid")
        enters = [e for e in rec.events() if e.kind == "syscall-enter"]
        exits = [e for e in rec.events() if e.kind == "syscall-exit"]
        assert [e.name for e in enters] == ["getpid"]
        assert [e.name for e in exits] == ["getpid"]
        assert enters[0].thread == exits[0].thread
