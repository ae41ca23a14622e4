"""OEMU — in-vivo out-of-order execution emulation (the paper's §3)."""

from repro.oemu.barriers import (
    OrderingEffect,
    atomic_effect,
    load_effect,
    store_effect,
)
from repro.oemu.core import Oemu, OemuStats, ThreadState
from repro.oemu.instrument import (
    InstrumentationReport,
    instrument_program,
    is_instrumented,
)
from repro.oemu.lkmm import DependencyKind, PpoQuery, reordering_allowed
from repro.oemu.profiler import (
    AccessEvent,
    BarrierEvent,
    Profiler,
    SyscallProfile,
)

__all__ = [
    "AccessEvent",
    "BarrierEvent",
    "DependencyKind",
    "InstrumentationReport",
    "Oemu",
    "OemuStats",
    "OrderingEffect",
    "PpoQuery",
    "Profiler",
    "SyscallProfile",
    "ThreadState",
    "atomic_effect",
    "instrument_program",
    "is_instrumented",
    "load_effect",
    "reordering_allowed",
    "store_effect",
]
