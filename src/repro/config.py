"""Kernel build/run configuration.

Every seeded OOO bug in the simulated kernel is guarded by a patch
toggle: building with the bug's id in ``patched`` emits the fixing
barrier (like running a kernel that contains the upstream fix), while
leaving it out reproduces the buggy kernel version from the paper's
Tables 3 and 4.  This is how the reproduction harness reverts patches
("we ... revert patches to introduce OOO bugs", §6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.errors import ConfigError


@dataclass(frozen=True)
class KernelConfig:
    """Immutable description of one kernel build.

    ``patched``       bug ids whose fixing barriers are compiled in.
    ``instrumented``  whether the OEMU compiler pass runs (the OZZ build
                      vs the plain build Syzkaller would use).
    ``instrument_only`` optional subsystem whitelist for selective
                      instrumentation (§6.3.1 mitigation).
    ``kasan`` / ``lockdep``  oracle toggles.
    ``strict_lint``   run the full KIRA lint at image-build time and
                      refuse to build on definite defects (lock-pairing
                      imbalances); the advisory missing-barrier report
                      is attached to the image either way.
    ``ncpus``         number of simulated CPUs.
    ``sbitmap_manual_percpu``  the §6.2 "manual modification": force the
                      sbitmap per-CPU bug's threads to share one per-CPU
                      block even though they run on different CPUs.
    ``snapshot_reset``  capture a boot snapshot so :meth:`Kernel.reset`
                      can restore pristine state via dirty-page tracking
                      and the fuzzer can reuse one kernel per shard
                      instead of re-booting per test.
    ``prefix_cache``  layer per-STI prefix snapshots on the boot
                      snapshot so the fuzzer's MTI fan-out skips
                      re-executing the shared sequential prefix
                      (:mod:`repro.fuzzer.prefix`).  Requires
                      ``snapshot_reset``; normalized to ``False`` when
                      snapshot reset is off.  Observably identical
                      either way — the differential suites prove it.
    """

    patched: FrozenSet[str] = frozenset()
    instrumented: bool = True
    instrument_only: Optional[Tuple[str, ...]] = None
    kasan: bool = True
    lockdep: bool = True
    strict_lint: bool = False
    ncpus: int = 2
    sbitmap_manual_percpu: bool = False
    snapshot_reset: bool = True
    prefix_cache: bool = True

    def __post_init__(self) -> None:
        if self.ncpus < 1:
            raise ConfigError("need at least one CPU")
        object.__setattr__(
            self, "prefix_cache", self.prefix_cache and self.snapshot_reset
        )

    def is_patched(self, bug_id: str) -> bool:
        return bug_id in self.patched

    def with_patches(self, bug_ids: Iterable[str]) -> "KernelConfig":
        return self.replace(patched=self.patched | frozenset(bug_ids))

    def replace(self, **changes) -> "KernelConfig":
        from dataclasses import replace

        return replace(self, **changes)


def buggy_config(**changes) -> KernelConfig:
    """The paper's evaluation target: every seeded bug present."""
    return KernelConfig(**changes)


def fixed_config(bug_ids: Iterable[str], **changes) -> KernelConfig:
    """A kernel with the given bugs patched."""
    return KernelConfig(patched=frozenset(bug_ids), **changes)
