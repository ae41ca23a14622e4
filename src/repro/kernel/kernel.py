"""The simulated kernel: image building and per-run instances.

Two-level split, mirroring "compile once, boot many":

* :class:`KernelImage` — built once per :class:`~repro.config.KernelConfig`
  per process: :func:`kernel_image` memoizes it, and forked workers
  inherit the memo.  Collects every subsystem's KIR functions, assigns
  global-variable addresses, links the program, runs the static
  validator, and (when configured) applies the OEMU instrumentation
  pass.  Immutable and shared: every campaign, reproducer and replay in
  the process runs against the one image of its config.

* :class:`Kernel` — one booted instance: fresh memory, allocator,
  oracles, store history and clock.  Cheap to create, so every MTI test
  can run on pristine state (a crashed simulated kernel is simply
  dropped, like rebooting a fuzzing VM).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import KernelConfig
from repro.errors import ConfigError, KirError
from repro.kir.decode import decode_program
from repro.kir.function import Program
from repro.kir.interp import ThreadCtx
from repro.kir.validate import validate_program
from repro.kernel.helpers import DEFAULT_HELPERS
from repro.kernel.subsystem import Subsystem
from repro.kernel.syscalls import SyscallDef
from repro.machine import Machine
from repro.mem.memory import DATA_BASE, DATA_SIZE
from repro.oemu.instrument import InstrumentationReport, instrument_program
from repro.oemu.profiler import ENGINE_COUNTERS, Profiler
from repro.oracles.assertions import ReturnValueOracle
from repro.trace.events import SyscallEnter
from repro.trace.sink import NULL_SINK, TraceSink


def default_subsystems() -> List[Subsystem]:
    """All subsystems of the simulated kernel, in boot order."""
    from repro.kernel.subsystems import ALL_SUBSYSTEMS

    return list(ALL_SUBSYSTEMS)


class KernelImage:
    """A compiled kernel: linked (and possibly instrumented) program."""

    def __init__(
        self,
        config: KernelConfig,
        subsystems: Optional[Sequence[Subsystem]] = None,
    ) -> None:
        self.config = config
        self.subsystems: List[Subsystem] = (
            list(subsystems) if subsystems is not None else default_subsystems()
        )
        self.globals: Dict[str, int] = {}
        self._assign_globals()
        functions = []
        self.function_owner: Dict[str, str] = {}
        for subsystem in self.subsystems:
            for func in subsystem.build(config, self.globals):
                functions.append(func)
                self.function_owner[func.name] = subsystem.name
        self.plain_program = Program(functions)
        validate_program(self.plain_program, helper_names=set(DEFAULT_HELPERS))
        self.lint_report = None
        if config.strict_lint:
            from repro.analysis.lint import lint_program

            self.lint_report = lint_program(
                self.plain_program,
                self.function_owner,
                roots=self.syscall_roots(),
                regions=self.global_regions(),
            )
            # Missing-barrier candidates are advisory (the seeded bugs
            # *are* such candidates); definite defects refuse the build.
            hard = self.lint_report.by_check("lock-pairing")
            if hard:
                raise KirError(
                    "strict lint failed:\n  "
                    + "\n  ".join(
                        f"{f.function}[{f.index}]: {f.message}" for f in hard
                    )
                )
        self.instrument_report: Optional[InstrumentationReport] = None
        if config.instrumented:
            only = None
            if config.instrument_only is not None:
                allowed = set(config.instrument_only)
                owners = self.function_owner
                only = lambda fn: owners.get(fn) in allowed
            self.program, self.instrument_report = instrument_program(
                self.plain_program, only=only
            )
        else:
            self.program = self.plain_program
        self.syscalls: Dict[str, SyscallDef] = {}
        for subsystem in self.subsystems:
            for sc in subsystem.syscalls:
                if sc.name in self.syscalls:
                    raise ConfigError(f"duplicate syscall {sc.name}")
                if not self.program.has_function(sc.func):
                    raise ConfigError(f"syscall {sc.name}: no function {sc.func}")
                self.syscalls[sc.name] = sc
        # Decode once at image-build time; every Kernel booted from this
        # image (all tests, all batches) shares the result.
        decode_program(self.program)

    def _assign_globals(self) -> None:
        cursor = DATA_BASE
        for subsystem in self.subsystems:
            for name, size in subsystem.globals.items():
                if name in self.globals:
                    raise ConfigError(f"duplicate global {name}")
                self.globals[name] = cursor
                cursor += (size + 15) & ~15
        if cursor > DATA_BASE + DATA_SIZE:
            raise ConfigError("data segment exhausted")

    def global_regions(self) -> Dict[str, Tuple[int, int]]:
        """``{name: (address, size)}`` for every subsystem global —
        the region map KIRA's points-to pass resolves immediates with."""
        sizes: Dict[str, int] = {}
        for subsystem in self.subsystems:
            sizes.update(subsystem.globals)
        return {name: (addr, sizes[name]) for name, addr in self.globals.items()}

    def syscall_roots(self) -> List[str]:
        """Entry-point function names (call-graph roots), sorted."""
        return sorted({sc.func for s in self.subsystems for sc in s.syscalls})

    def syscall_names(self) -> List[str]:
        return sorted(self.syscalls)


#: Images :func:`kernel_image` keeps (least recently used evicted first).
#: One image is about 1 MB, and a process fuzzes one or two configs.
IMAGE_CACHE_SIZE = 4

_images: "OrderedDict[KernelConfig, KernelImage]" = OrderedDict()
_images_lock = threading.Lock()


def _reset_images_lock() -> None:
    # A fork taken while another thread held the lock would leave the
    # child a lock nobody releases.
    global _images_lock
    _images_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_images_lock)


def kernel_image(config: KernelConfig) -> KernelImage:
    """The image of ``config``, built once per config per process.

    Images are immutable, so every caller shares one; workers forked
    after a build inherit it.  The lock guards the table only, never a
    build: two threads that miss at once both build, and both return
    the image inserted first.
    """
    with _images_lock:
        image = _images.get(config)
        if image is not None:
            _images.move_to_end(config)
            return image
    built = KernelImage(config)
    with _images_lock:
        image = _images.setdefault(config, built)
        _images.move_to_end(config)
        while len(_images) > IMAGE_CACHE_SIZE:
            _images.popitem(last=False)
    return image


class Kernel(Machine):
    """One booted kernel instance."""

    def __init__(
        self,
        image: KernelImage,
        *,
        profiler: Optional[Profiler] = None,
        trace: TraceSink = NULL_SINK,
    ) -> None:
        super().__init__(
            image.program,
            ncpus=image.config.ncpus,
            with_oemu=True,
            profiler=profiler,
            kasan_enabled=image.config.kasan,
            trace=trace,
        )
        self.image = image
        self.config = image.config
        self.lockdep.enabled = image.config.lockdep
        self.retval_oracle = ReturnValueOracle()
        self.warnings: list = []
        self.fdtable: Dict[int, int] = {}
        self.next_fd = 3
        for name, fn in DEFAULT_HELPERS.items():
            self.register_helper(name, fn)
        self._boot()
        ENGINE_COUNTERS.boots += 1
        self.engine_counters.boots += 1
        self._boot_snapshot = None
        self._boot_trace = self.trace  # construction-time sink, == oemu's
        if image.config.snapshot_reset:
            from repro.kernel.snapshot import capture

            self._boot_snapshot = capture(self)

    def _boot(self) -> None:
        for subsystem in self.image.subsystems:
            if subsystem.init is not None:
                subsystem.init(self)

    def reset(self, to=None) -> int:
        """Rewind to the boot snapshot (or a prefix above it).

        Replaces drop-and-reboot in the fuzzer loop: the restore is
        dirty-tracked (O(pages the last test wrote)), thread ids restart
        from their boot value so traces stay byte-identical, and per-run
        attachments (kcov, a post-boot trace sink) are detached.

        ``to`` may name a :class:`~repro.kernel.snapshot.PrefixSnapshot`
        previously captured from *this image's* boot state (see
        :meth:`capture_prefix`); the kernel is then positioned exactly as
        if it had executed that sequential prefix fresh after boot.
        Returns memory pages restored.
        """
        if self._boot_snapshot is None:
            raise ConfigError(
                "Kernel.reset() requires KernelConfig(snapshot_reset=True)"
            )
        from repro.kernel.snapshot import restore, restore_prefix

        if to is None:
            restored = restore(self, self._boot_snapshot)
        else:
            restored = restore_prefix(self, self._boot_snapshot, to)
        self.kcov = None
        # Back to the construction-time sink on the machine and its OEMU;
        # the property setter re-binds the interpreter's hoisted copy, so
        # a sink attached for one recorded test is dropped.
        self.trace = self.oemu.trace = self._boot_trace
        ENGINE_COUNTERS.resets += 1
        ENGINE_COUNTERS.dirty_pages_restored += restored
        self.engine_counters.resets += 1
        self.engine_counters.dirty_pages_restored += restored
        return restored

    def capture_prefix(self):
        """Snapshot the current state as a delta over the boot snapshot.

        The result feeds :meth:`reset(to=...) <reset>`; dirty tracking
        keeps running, so execution may continue from here (the prefix
        cache extends the deepest captured prefix this way).
        """
        if self._boot_snapshot is None:
            raise ConfigError(
                "Kernel.capture_prefix() requires KernelConfig(snapshot_reset=True)"
            )
        from repro.kernel.snapshot import capture_prefix

        snap = capture_prefix(self)
        ENGINE_COUNTERS.prefix_snapshots += 1
        self.engine_counters.prefix_snapshots += 1
        return snap

    # -- data access convenience ---------------------------------------------

    def glob(self, name: str) -> int:
        """Address of a named kernel global."""
        try:
            return self.image.globals[name]
        except KeyError:
            raise KirError(f"no global named {name!r}")

    def poke(self, addr: int, value: int, size: int = 8) -> None:
        """Write simulated memory directly (boot/test setup only)."""
        self.memory.store(addr, size, value, check=False)

    def peek(self, addr: int, size: int = 8) -> int:
        return self.memory.load(addr, size, check=False)

    # -- syscall interface ---------------------------------------------------------

    def spawn_syscall(self, name: str, args: Sequence[int] = (), *, cpu: int = 0) -> ThreadCtx:
        """Create a thread entering the kernel through syscall ``name``.

        Performs the syscall-entry ordering (full barrier semantics) but
        does not run; the caller drives execution (the MTI executor
        interleaves it with another syscall).
        """
        sc = self._lookup(name)
        func = self.program.function(sc.func)
        argv = self._fit_args(args, len(func.params))
        thread = self.spawn(sc.func, argv, cpu=cpu)
        thread.syscall_name = name  # used by the executor's exit path
        if self.trace.active:
            self.trace.emit(SyscallEnter(thread.thread_id, name))
        if self.oemu is not None:
            self.oemu.on_syscall_entry(thread.thread_id)
        return thread

    def run_syscall(self, name: str, args: Sequence[int] = (), *, cpu: int = 0) -> int:
        """Run a syscall start-to-finish on one CPU; returns its value.

        Crashes (oracle firings) propagate as :class:`KernelCrash`.
        """
        thread = self.spawn_syscall(name, args, cpu=cpu)
        retval = self.interp.run(thread)
        self.finish_syscall(thread, name)
        return retval

    def finish_syscall(self, thread: ThreadCtx, name: str = "") -> None:
        """Syscall-exit path: ordering, lockdep, return-value oracle."""
        super().finish_syscall(thread, name)
        if name:
            self.retval_oracle.on_return(name, thread.retval)

    def _lookup(self, name: str) -> SyscallDef:
        try:
            return self.image.syscalls[name]
        except KeyError:
            raise KirError(f"no syscall named {name!r}")

    @staticmethod
    def _fit_args(args: Sequence[int], nparams: int) -> Tuple[int, ...]:
        argv = list(args)[:nparams]
        argv.extend([0] * (nparams - len(argv)))
        return tuple(argv)


class KernelPool:
    """One reusable kernel per image: boot once, reset per test.

    ``acquire()`` hands out a pristine kernel — booted on first use,
    snapshot-restored thereafter — so a fuzzing shard pays one boot for
    its whole campaign.  A crashed kernel needs no special handling: the
    next ``acquire()`` rewinds it the same way.  Only valid for images
    built with ``snapshot_reset=True``.  Crash artifacts are recorded on
    the pooled kernel too: booting emits no trace events, so a sink
    attached to a reset kernel (see :func:`~repro.fuzzer.mti.run_mti`)
    records what it would on a fresh boot, and the next ``acquire()``
    detaches it.
    """

    def __init__(self, image: KernelImage) -> None:
        if not image.config.snapshot_reset:
            raise ConfigError("KernelPool requires KernelConfig(snapshot_reset=True)")
        self.image = image
        self._kernel: Optional[Kernel] = None

    def acquire(
        self, *, profiler: Optional[Profiler] = None, at=None
    ) -> Kernel:
        """A kernel in boot state, with ``profiler`` attached (or detached).

        ``at`` positions the kernel at a previously captured
        :class:`~repro.kernel.snapshot.PrefixSnapshot` instead of boot
        state (the prefix-cache fast path).
        """
        kernel = self._kernel
        if kernel is None:
            kernel = Kernel(self.image, profiler=profiler)
            self._kernel = kernel
            if at is not None:
                kernel.reset(to=at)
        else:
            kernel.reset(to=at)
            if kernel.profiler is not profiler:
                kernel.profiler = profiler
                if kernel.oemu is not None:
                    kernel.oemu.profiler = profiler
        return kernel
