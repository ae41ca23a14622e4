"""TraceSink — the pluggable consumer side of the event bus.

Emission sites throughout the stack follow one pattern::

    trace = self.machine.trace        # or self.trace at the OEMU layer
    if trace.active:
        trace.emit(Step(thread_id, addr))

so the default :data:`NULL_SINK` costs one attribute load and a falsy
branch per dispatch point — no event object is ever constructed on the
uninstrumented hot path (``bench_trace_overhead.py`` asserts the <5%
budget).  ``index`` counts emitted events and is what crash reports
store as ``event_index``.
"""

from __future__ import annotations

from typing import Iterable, List, Protocol, runtime_checkable

from repro.trace.events import ExecEvent


@runtime_checkable
class TraceSink(Protocol):
    """What every sink provides.

    ``active``  False only for the no-op sink; emission sites skip
                event construction entirely when it is False.
    ``index``   number of events this sink has consumed (the bus's
                monotone event counter).
    """

    active: bool
    index: int

    def emit(self, event: ExecEvent) -> None: ...


class NullSink:
    """The zero-cost default: never receives anything.

    A process-wide singleton (:data:`NULL_SINK`); ``active`` is False so
    no emission site ever constructs an event for it.  ``emit`` still
    exists (a no-op) so code that forgets the ``active`` guard stays
    correct, just slower.
    """

    active = False
    index = 0

    def emit(self, event: ExecEvent) -> None:  # pragma: no cover - guarded out
        pass

    def __repr__(self) -> str:
        return "<NullSink>"


NULL_SINK = NullSink()


class TeeSink:
    """Fan one event stream out to several sinks (e.g. record + metrics)."""

    active = True

    def __init__(self, sinks: Iterable[TraceSink]) -> None:
        self.sinks: List[TraceSink] = [s for s in sinks if s.active]
        self.index = 0

    def emit(self, event: ExecEvent) -> None:
        self.index += 1
        for sink in self.sinks:
            sink.emit(event)
