"""Span tracing from outside the program: wrap each layer's public calls.

The benchmark never edits ``src/``.  Instead :class:`Tracer` replaces a
function under the name its caller looks it up by (a module global such
as ``repro.fuzzer.fuzzer.run_mti``, or a class attribute such as
``Kernel.reset``) with a wrapper that records a span: name, start, end,
parent span and the id of the fuzzing iteration it belongs to.  Spans
stay in memory; :meth:`Tracer.layer_split` turns them into per-layer
self times after the run and :meth:`Tracer.dump` writes them out.

Only the process that installed the tracer records.  Pooled workers
forked from it inherit the wrappers, but a fork hook switches recording
off in the child, so worker-side time is taken from
``ShardStats.seconds`` instead.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (span name, module, class or None, attribute).  Each target is patched
# where its caller resolves it at call time: the fuzzer module's globals
# for the pipeline stages, the class for methods, and the supervisor's
# own globals for the functions it imported by name.
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("kernel.image_build", "repro.kernel.kernel", "KernelImage", "__init__"),
    ("kernel.boot", "repro.kernel.kernel", "Kernel", "__init__"),
    ("kernel.reset", "repro.kernel.kernel", "Kernel", "reset"),
    ("fuzzer.iteration", "repro.fuzzer.fuzzer", "OzzFuzzer", "fuzz_one"),
    ("generator.next_sti", "repro.fuzzer.fuzzer", "OzzFuzzer", "next_sti"),
    ("sti.profile", "repro.fuzzer.fuzzer", None, "profile_sti"),
    ("hints.calculate", "repro.fuzzer.fuzzer", None, "calculate_hints"),
    ("mti.run", "repro.fuzzer.fuzzer", None, "run_mti"),
    ("prefix.prime", "repro.fuzzer.prefix", "PrefixCache", "prime"),
    ("prefix.position", "repro.fuzzer.prefix", "PrefixCache", "position"),
    ("corpus.consider", "repro.fuzzer.corpus", "Corpus", "consider"),
    ("triage.add", "repro.fuzzer.triage", "CrashDB", "add"),
    ("reproducer.from_result", "repro.fuzzer.reproducer", "Reproducer", "from_result"),
    # Imported lazily inside OzzFuzzer._record_artifact, so the module
    # attribute is what the fuzzer finds.
    ("replayer.record", "repro.trace.replayer", None, "record_crash_artifact"),
    ("parallel.run_batch", "repro.fuzzer.parallel", None, "run_batch"),
    ("parallel.merge", "repro.fuzzer.parallel", None, "merge_shards"),
    ("parallel.merge", "repro.fuzzer.supervisor", None, "merge_shards"),
    ("supervisor.checkpoint", "repro.fuzzer.supervisor", None, "write_checkpoint"),
    ("supervisor.load_checkpoint", "repro.fuzzer.supervisor", None, "load_checkpoint"),
)

# Span fields: name, start ns, end ns, parent index (-1 for a root) and
# iteration id (0 outside fuzz_one).
NAME, START, END, PARENT, ITERATION = range(5)


def _dir_bytes(path: str) -> int:
    with os.scandir(path) as entries:
        return sum(e.stat().st_size for e in entries if e.is_file())


class Tracer:
    """Records nested spans around the patched layer boundaries."""

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []  # None while open
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._iteration = 0
        self._iterations = 0
        self._saved: List[Tuple[object, str, object]] = []
        self._recording = True
        os.register_at_fork(after_in_child=self._stop_recording)

    def _stop_recording(self) -> None:
        self._recording = False

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        if self._saved:
            return
        for name, modname, clsname, attr in TARGETS:
            module = importlib.import_module(modname)
            owner = getattr(module, clsname) if clsname else module
            original = owner.__dict__[attr] if clsname else getattr(module, attr)
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(name, original.__func__))
            else:
                patched = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(name)
        new_request = name == "fuzzer.iteration"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            spans = tracer.spans
            if new_request:
                tracer._iterations += 1
                tracer._iteration = tracer._iterations
            parent = stack[-1] if stack else -1
            iteration = tracer._iteration
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                # A closed span is a tuple of atoms, which the garbage
                # collector stops tracking; a list per span would make every
                # full collection walk all of them.
                spans[index] = (name, start, end, parent, iteration)
                if new_request:
                    tracer._iteration = 0
            if observe is not None:
                observe(tracer, (end - start) / 1e9, args, result)
            return result

        return wrapper

    # -- spans the benchmark opens itself --------------------------------------

    def root(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` as a root span (a campaign or a resume)."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans[index] = (name, start, time.perf_counter_ns(), -1, 0)
            self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- analysis ----------------------------------------------------------------

    def layer_split(
        self, root: str
    ) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]:
        """Per span name under roots named ``root``: summed self seconds,
        call count and summed seconds.

        A span's self time is its duration minus the durations of its
        direct children; spans nest strictly (one thread records), so the
        self times of a root and all its descendants add up to the root's
        duration exactly.
        """
        child_ns = [0] * len(self.spans)
        root_of = [0] * len(self.spans)
        for index, span in enumerate(self.spans):
            parent = span[PARENT]
            if parent >= 0:
                child_ns[parent] += span[END] - span[START]
                root_of[index] = root_of[parent]
            else:
                root_of[index] = index
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        total_s: Dict[str, float] = {}
        for span, children, top in zip(self.spans, child_ns, root_of):
            if self.spans[top][NAME] != root:
                continue
            name = span[NAME]
            duration = span[END] - span[START]
            self_s[name] = self_s.get(name, 0.0) + (duration - children) / 1e9
            total_s[name] = total_s.get(name, 0.0) + duration / 1e9
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls, total_s

    def durations_ms(self, name: str) -> List[float]:
        return [
            (s[END] - s[START]) / 1e6 for s in self.spans if s[NAME] == name
        ]

    def dump(self, path: str) -> None:
        """Write the spans out as JSON lines (one span per line).

        Span names are plain identifiers, so the lines are formatted
        directly rather than through ``json.dumps`` per span.
        """
        with open(path, "w") as fh:
            fh.writelines(
                f'{{"id": {index}, "name": "{name}", "start_ns": {start}, '
                f'"end_ns": {end}, "parent": {parent}, "iteration": {iteration}}}\n'
                for index, (name, start, end, parent, iteration) in enumerate(self.spans)
            )


# -- per-target observers: counts taken where the work happens ----------------


def _observe_profile(tracer: Tracer, seconds: float, args: Sequence, result) -> None:
    # An STI that ends in a crash is, in the seeded kernel, always a
    # runaway that burned its step budget; count the time it took
    # whatever title later reports it under.
    if result.crash is not None:
        tracer.count("sti.hang_s", seconds)


def _observe_mti(tracer: Tracer, seconds: float, args: Sequence, result) -> None:
    if result.crashed:
        tracer.count("mti.crashed")


def _observe_consider(tracer: Tracer, seconds: float, args: Sequence, result) -> None:
    if result:
        tracer.count("corpus.kept")


def _observe_checkpoint(tracer: Tracer, seconds: float, args: Sequence, result) -> None:
    # write_checkpoint rewrites every file in the directory on each call.
    tracer.count("supervisor.checkpoint_bytes", _dir_bytes(args[0]))


_OBSERVERS: Dict[str, Callable] = {
    "sti.profile": _observe_profile,
    "mti.run": _observe_mti,
    "corpus.consider": _observe_consider,
    "supervisor.checkpoint": _observe_checkpoint,
}
