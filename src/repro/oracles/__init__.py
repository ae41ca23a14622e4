"""Bug-detecting oracles deployed in the simulated kernel (paper §4.4)."""

from repro.oracles.assertions import Assertions, ReturnValueOracle
from repro.oracles.fault import FaultOracle
from repro.oracles.kasan import Kasan
from repro.oracles.kcsan import Kcsan, RaceReport
from repro.oracles.lockdep import Lockdep
from repro.oracles.report import (
    CrashReport,
    assertion_title,
    gpf_title,
    kasan_title,
    lockdep_title,
    null_deref_title,
    stack_overflow_title,
)

__all__ = [
    "Assertions",
    "CrashReport",
    "FaultOracle",
    "Kasan",
    "Kcsan",
    "Lockdep",
    "RaceReport",
    "ReturnValueOracle",
    "assertion_title",
    "gpf_title",
    "kasan_title",
    "lockdep_title",
    "null_deref_title",
    "stack_overflow_title",
]
