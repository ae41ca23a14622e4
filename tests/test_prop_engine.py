"""Generated-program property: the decoded engine vs the reference oracle.

Hypothesis builds whole KIR programs of one to three functions: loops,
branches both ways, direct calls and icalls (self-recursion included,
which runs past the 256-frame kernel stack), every ``AtomicOp`` and
ordering, every barrier kind and access annotation, accesses that stay
in bounds and accesses that fault, allocator and spinlock helpers,
undefined registers, and fuel budgets small enough to run out.  Each
program runs plain and instrumented (OEMU delaying its stores and
versioning its loads when the example asks), and each run compares the
decoded engine with the oracle of ``tests/kir_reference.py`` three ways:

* ``stepped``: kcov and a ``TraceRecorder`` attached, so both engines
  retire every instruction through ``step()``;
* ``run``: ``Interpreter.run`` with no observer, where the decoded side
  runs ``_run_decoded``;
* ``scheduled``: ``CustomScheduler.run_until(thread, None)`` with no
  observer, where the decoded side runs ``_run_fast``.

The return value (or the exception's type and message), ``steps``,
fuel, the memory and shadow fingerprints, the logical clock and OEMU's
counters must be equal; the stepped pair must also agree on kcov and
on the whole event stream.  The observed (stepped) run must equal the
unobserved ``run`` in everything both record.
"""

from typing import NamedTuple, Tuple

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import KernelCrash
from repro.fuzzer.kcov import KCov
from repro.kernel.helpers import DEFAULT_HELPERS
from repro.kir import Builder, Program
from repro.kir.function import FUNC_STRIDE, TEXT_BASE
from repro.kir.insn import (
    ACCESS_SIZES,
    MASK64,
    Annot,
    AtomicOp,
    AtomicOrdering,
    AtomicRMW,
    BarrierKind,
    BinOpKind,
    Cond,
    Helper,
    ICall,
    as_operand,
)
from repro.machine import Machine
from repro.mem.memory import DATA_BASE, DATA_SIZE, HEAP_BASE
from repro.oemu.instrument import instrument_program
from repro.sched.scheduler import CustomScheduler
from repro.trace.recorder import TraceRecorder
from tests.kir_reference import on_reference

REGS = ("r0", "r1", "r2", "r3")
PARAMS = ("p0", "p1")
#: Never written: reading it is an undefined-register error.
GHOST = "ghost"
THREAD = 1
HELPERS = ("kzalloc", "kfree", "spin_lock", "spin_unlock", "bug_on")
LOCK = DATA_BASE + 0x80


def _func_addr(k: int) -> int:
    return TEXT_BASE + k * FUNC_STRIDE


IMMEDIATES = (
    0, 1, 3, 8, 63, 64, 0xFF, MASK64,
    DATA_BASE, DATA_BASE + 0x18, HEAP_BASE, 0x10_0000,
    _func_addr(0), _func_addr(1), _func_addr(2), _func_addr(0) + 4,
)


class Spec(NamedTuple):
    """One generated program and how to run it.

    ``funcs`` holds ``(nparams, init, body, ret)`` per function: ``init``
    gives each pool register its starting immediate (None leaves it
    undefined), ``body``
    is a tuple of statements (see :func:`_emit`), ``ret`` an operand or
    None.  Operands are KIR's shorthand: a ``str`` is a register, an
    ``int`` an immediate.
    """

    funcs: Tuple
    args: Tuple[int, ...] = ()
    fuel: int = 600
    sched_budget: int = 60_000
    delay_stores: bool = False
    version_loads: bool = False


# -- strategies ---------------------------------------------------------------
#
# Most draws build programs that run: registers are defined, accesses
# stay in bounds and icalls reach a function with its arity.  One
# statement in FAULT_ODDS is drawn from ``faulty_statements`` instead, so
# a typical run retires dozens of instructions before the first fault
# ends it, and every kind of fault still shows up.


def rarely(common, rare, one_in):
    """``rare`` in one draw of ``one_in``, ``common`` in the others.

    The pick is a ``sampled_from`` index, which Hypothesis draws about
    uniformly; a bounded ``integers`` draw lands on its bounds several
    times more often than that.  The shrinker moves picks toward index
    0, the common side.
    """
    return st.sampled_from(range(one_in)).flatmap(
        lambda pick: rare if pick == one_in - 1 else common
    )


FAULT_ODDS = 16

#: Reads that may be undefined: a parameter the function may lack, or
#: the never-written ghost.
risky_regs = st.sampled_from(PARAMS + (GHOST,))
regs = rarely(st.sampled_from(REGS), risky_regs, 48)
dsts = st.sampled_from(REGS + PARAMS)
imms = st.sampled_from(IMMEDIATES) | st.integers(0, MASK64)
operands = regs | imms
#: Accesses meet on a few hot words most of the time, so loads, stores
#: and atomics overlap where OEMU delays and versions them.
addresses = st.tuples(st.just(DATA_BASE), st.sampled_from((0, 4, 8, 0x10, 0x18)) | st.integers(0, 0x60))
#: Through a register (a pointer, or garbage that faults), or at the
#: NULL page, an unmapped hole, unallocated heap (KASAN), or the end of
#: the data region.
faulting_addresses = st.tuples(regs, st.integers(0, 0x20)) | st.tuples(
    st.sampled_from((0, 0x10_0000, HEAP_BASE, DATA_BASE + DATA_SIZE - 4)),
    st.integers(0, 8),
)
#: Addresses the memory check itself rejects (KASAN runs later).
unmapped_addresses = st.tuples(
    st.sampled_from((0, 0x10_0000, DATA_BASE + DATA_SIZE - 4)), st.integers(1, 8)
)
#: Comparisons differ only at their boundary, so half of all operand
#: pairs compare equal.
operand_pairs = operands.flatmap(lambda lhs: st.tuples(st.just(lhs), st.just(lhs) | operands))
sizes = st.sampled_from(ACCESS_SIZES)
annots = st.sampled_from(Annot)
#: Mostly forward: a backward branch on a register may loop until the
#: fuel runs out, which a few examples should do and most should not.
#: A backward jump always does, so it is rarer still.
backward = st.sampled_from((False, False, False, True))
backward_jump = rarely(st.just(False), st.just(True), FAULT_ODDS)
BIT_OPS = (AtomicOp.TEST_AND_SET_BIT, AtomicOp.SET_BIT, AtomicOp.CLEAR_BIT)


@st.composite
def atomics(draw, where=addresses):
    op = draw(st.sampled_from(AtomicOp))
    # Bit numbers stay below 64: ``1 << operand`` on a 64-bit register
    # value would build an enormous Python int.
    operand = draw(st.integers(0, 63) if op in BIT_OPS else operands)
    expected = None
    if op is AtomicOp.CMPXCHG:
        expected = draw(st.none() | operands | operands)
    return (
        "atomic", op, draw(where), operand, expected,
        draw(st.sampled_from(AtomicOrdering)), draw(sizes), draw(st.none() | dsts),
    )


helpers = st.one_of(
    st.tuples(st.just("helper"), st.just("kzalloc"), st.tuples(st.sampled_from((8, 24, 64))), dsts),
    st.tuples(st.just("helper"), st.just("spin_lock"), st.just((LOCK,)), st.none()),
    st.tuples(st.just("helper"), st.just("bug_on"), st.just((0,)), st.none()),
)

plain_statements = st.one_of(
    st.tuples(st.just("mov"), dsts, operands),
    st.tuples(st.just("binop"), st.sampled_from(BinOpKind), dsts, operand_pairs),
    st.tuples(st.just("load"), dsts, addresses, sizes, annots),
    st.tuples(st.just("store"), addresses, operands, sizes, annots),
    st.tuples(st.just("barrier"), st.sampled_from(BarrierKind)),
    atomics(),
    st.tuples(st.just("call"), st.integers(0, 2), st.tuples(operands, operands), st.none() | dsts),
    st.tuples(st.just("icall_to"), st.integers(0, 2), st.tuples(operands, operands), st.none() | dsts),
    st.just(("nop",)),
)

#: Each of these may end the run: an undefined read, a faulting
#: access, a bad icall target or arity, or a helper that crashes or does
#: not exist.  A store reads its source before its address is checked,
#: so an undefined source stored to an unmapped address must fail on
#: the source.
faulty_statements = st.one_of(
    st.tuples(st.just("store"), unmapped_addresses, st.just(GHOST) | risky_regs, sizes, annots),
    st.tuples(st.just("store"), faulting_addresses, operands, sizes, annots),
    st.tuples(st.just("load"), dsts, faulting_addresses, sizes, annots),
    atomics(faulting_addresses),
    st.tuples(st.just("mov"), dsts, risky_regs),
    st.tuples(
        st.just("icall"),
        st.sampled_from(IMMEDIATES[-4:]) | regs,
        st.lists(operands, max_size=2).map(tuple),
        st.none() | dsts,
    ),
    st.tuples(st.just("helper"), st.just("kfree"), st.tuples(regs), st.none()),
    st.tuples(st.just("helper"), st.just("spin_unlock"), st.just((LOCK,)), st.none()),
    st.tuples(st.just("helper"), st.just("bug_on"), st.tuples(regs), st.none()),
    st.tuples(st.just("helper"), st.just("no_such_helper"), st.just(()), dsts),
)
simple_statements = rarely(rarely(plain_statements, helpers, 6), faulty_statements, FAULT_ODDS)

loops = st.tuples(
    st.just("loop"),
    st.sampled_from(range(1, 11)),
    st.lists(simple_statements, min_size=1, max_size=4).map(tuple),
)
#: Loops come first, so the simplest program Hypothesis draws (and
#: shrinks toward) is a run of loops, not of movs.
statements = st.one_of(
    loops,
    simple_statements,
    loops,
    st.tuples(st.just("branch"), st.sampled_from(Cond), operand_pairs, backward, st.integers(0, 4)),
    st.tuples(st.just("jump"), backward_jump, st.integers(0, 4)),
)

#: A pool register starts undefined one time in 32.
initial_values = rarely(st.sampled_from(IMMEDIATES), st.none(), 32)
functions = st.tuples(
    st.integers(0, 2),
    st.tuples(*[initial_values] * len(REGS)),
    st.lists(statements, min_size=6, max_size=14).map(tuple),
    st.none() | operands,
)

specs = st.builds(
    Spec,
    funcs=st.lists(functions, min_size=1, max_size=3).map(tuple),
    args=st.tuples(imms, imms),
    fuel=st.sampled_from((64, 600, 5000)),
    sched_budget=st.sampled_from((100, 60_000)),
    delay_stores=st.booleans(),
    version_loads=st.booleans(),
)


# -- building -------------------------------------------------------------------


def _emit(b: Builder, stmt, index: int, labels, nfuncs: int, nparams) -> None:
    kind = stmt[0]
    if kind == "mov":
        b.mov(stmt[2], dst=stmt[1])
    elif kind == "binop":
        _, op, dst, (lhs, rhs) = stmt
        b.binop(op, lhs, rhs, dst=dst)
    elif kind == "load":
        _, dst, (base, offset), size, annot = stmt
        b.load(base, offset, size=size, annot=annot, dst=dst)
    elif kind == "store":
        _, (base, offset), src, size, annot = stmt
        b.store(base, offset, src, size=size, annot=annot)
    elif kind == "barrier":
        {BarrierKind.FULL: b.mb, BarrierKind.RMB: b.rmb, BarrierKind.WMB: b.wmb}[stmt[1]]()
    elif kind == "atomic":
        # Emitted directly: the builder gives every returning op a
        # destination, and a discarded result must be exercised too.
        _, op, (base, offset), operand, expected, ordering, size, dst = stmt
        b.emit(
            AtomicRMW(
                op=op,
                base=as_operand(base),
                offset=offset,
                operand=as_operand(operand),
                expected=None if expected is None else as_operand(expected),
                dst=None if dst is None else as_operand(dst),
                size=size,
                ordering=ordering,
            )
        )
    elif kind == "call":
        callee = stmt[1] % nfuncs
        args = stmt[2][: nparams[callee]]
        if stmt[3] is None:
            b.call_void(f"f{callee}", *args)
        else:
            b.call(f"f{callee}", *args, dst=stmt[3])
    elif kind in ("icall", "icall_to"):
        _, target, args, dst = stmt
        if kind == "icall_to":  # through a pointer to a function, with its arity
            callee = target % nfuncs
            target, args = _func_addr(callee), args[: nparams[callee]]
        b.emit(
            ICall(
                target=as_operand(target),
                args=tuple(as_operand(a) for a in args),
                dst=None if dst is None else as_operand(dst),
            )
        )
    elif kind == "helper":
        _, name, args, dst = stmt
        b.emit(
            Helper(
                name=name,
                args=tuple(as_operand(a) for a in args),
                dst=None if dst is None else as_operand(dst),
            )
        )
    elif kind == "nop":
        b.nop()
    elif kind in ("branch", "jump"):
        back, distance = stmt[-2:]
        last = len(labels) - 1
        target = max(0, index - distance) if back else min(last, index + 1 + distance)
        if kind == "branch":
            cond, (lhs, rhs) = stmt[1:3]
            b.br(cond, lhs, rhs, labels[target])
        else:
            b.jmp(labels[target])
    elif kind == "loop":
        _, count, inner = stmt
        counter = f"c{index}"
        b.mov(0, dst=counter)
        top = b.label()
        b.bind(top)
        for inner_stmt in inner:
            _emit(b, inner_stmt, index, labels, nfuncs, nparams)
        b.add(counter, 1, dst=counter)
        b.blt(counter, count, top)
    else:  # pragma: no cover - strategy and builder out of step
        raise AssertionError(f"unknown statement {stmt!r}")


def build(spec: Spec) -> Program:
    nfuncs = len(spec.funcs)
    nparams = [f[0] for f in spec.funcs]
    funcs = []
    for k, (npar, init, body, ret) in enumerate(spec.funcs):
        b = Builder(f"f{k}", params=PARAMS[:npar])
        for reg, value in zip(REGS, init):
            if value is not None:
                b.mov(value, dst=reg)
        labels = [b.label() for _ in range(len(body) + 1)]
        for index, stmt in enumerate(body):
            b.bind(labels[index])
            _emit(b, stmt, index, labels, nfuncs, nparams)
        b.bind(labels[-1])
        b.ret(ret)
        funcs.append(b.function())
    return Program(funcs)


# -- running ---------------------------------------------------------------------


def _outcome(call):
    try:
        return ("ok", call())
    except KernelCrash as crash:
        report = crash.report
        return ("KernelCrash", report.title, report.inst_addr, report.detail)
    except Exception as exc:  # every escaping error must match, whatever its type
        return (type(exc).__name__, str(exc))


def execute(program: Program, spec: Spec, mode: str, instrumented: bool):
    """Run ``f0`` once on a fresh machine; every observable of the run."""
    stepped = mode == "stepped"
    recorder = TraceRecorder() if stepped else None
    m = Machine(program, **({"trace": recorder} if stepped else {}))
    for name in HELPERS:
        m.register_helper(name, DEFAULT_HELPERS[name])
    if stepped:
        m.kcov = KCov()
    if instrumented:
        for insn in program.all_insns():
            if spec.delay_stores:
                m.oemu.delay_store_at(THREAD, insn.addr)
            if spec.version_loads:
                m.oemu.read_old_value_at(THREAD, insn.addr)
    entry = program.function("f0")
    thread = m.interp.spawn("f0", spec.args[: len(entry.params)], thread_id=THREAD, fuel=spec.fuel)
    if mode == "scheduled":
        scheduler = CustomScheduler(m.interp, max_steps=spec.sched_budget)
        outcome = _outcome(lambda: (scheduler.run_until(thread, None), thread.retval))
    else:
        outcome = _outcome(lambda: m.interp.run(thread))
    m.oemu.flush(THREAD)  # delayed stores land, so the fingerprint sees them
    observed = (
        outcome,
        thread.steps,
        thread.fuel,
        m.memory.fingerprint(),
        m.shadow.fingerprint(),
        m.clock.now,
        m.oemu.stats,
    )
    if stepped:
        observed += (m.kcov.coverage_of(THREAD), recorder.index, recorder.events())
    return observed


OBSERVED = (
    "outcome", "steps", "fuel", "memory", "shadow", "clock", "oemu stats",
    "kcov", "events emitted", "events",
)


def check(spec: Spec) -> None:
    plain = build(spec)
    instrumented, _ = instrument_program(plain)
    for program, is_instrumented in ((plain, False), (instrumented, True)):
        runs = {}
        for mode in ("stepped", "run", "scheduled"):
            got = execute(program, spec, mode, is_instrumented)
            with on_reference():
                ref = execute(program, spec, mode, is_instrumented)
            differ = [name for name, a, b in zip(OBSERVED, got, ref) if a != b]
            assert not differ, (mode, is_instrumented, differ, got[:3], ref[:3])
            runs[mode] = got
        # Observers see the run; they must not change it.
        common = len(runs["run"])
        assert runs["stepped"][:common] == runs["run"], is_instrumented


class TestGeneratedPrograms:
    @given(specs)
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_decoded_engine_matches_oracle(self, spec):
        check(spec)


class TestRegressions:
    """Fixed programs for the corners random search reaches least often.

    The first three are the shrunk counterexamples the property produced
    against deliberately broken copies of the engine: a spin limit off
    by one in ``_run_fast``, a ``<=`` branch compiled as ``<``, and
    ``_run_decoded`` not counting a spinning helper's retries.  The rest
    pin behaviours the property is meant to cover; the last two also
    fail on copies that check a store's address before reading its
    source, or that run relaxed atomics around OEMU.
    """

    def test_jump_to_self_spins_out_at_the_same_step(self):
        check(Spec(funcs=((0, (0, 0, 0, 0), (("jump", True, 0),), None),), fuel=600))

    def test_branch_on_equal_operands(self):
        body = (("branch", Cond.LEU, ("r0", "r0"), False, 1), ("mov", "r0", "r0"))
        check(Spec(funcs=((0, (0, 0, 0, 0), body, None),), fuel=64, sched_budget=100))

    def test_spinning_on_a_held_lock(self):
        lock = ("helper", "spin_lock", (LOCK,), None)
        check(Spec(funcs=((0, (0, 0, 0, 0), (lock, lock), None),), fuel=64, sched_budget=100))
        check(Spec(funcs=((0, (0, 0, 0, 0), (lock, lock), None),), fuel=5000))

    def test_self_recursion_hits_the_stack_guard(self):
        body = (("call", 0, (0, 0), "r0"),)
        check(Spec(funcs=((0, (0, 0, 0, 0), body, "r0"),), fuel=5000))

    def test_mutual_recursion_through_an_icall(self):
        f0 = (1, (0, 0, 0, 0), (("icall", _func_addr(1), (), "r0"),), "r0")
        f1 = (0, (0, 0, 0, 0), (("call", 0, (7, 0), "r1"),), "r1")
        check(Spec(funcs=(f0, f1), args=(1, 2), fuel=5000))

    def test_cmpxchg_without_an_expected_value(self):
        body = (("atomic", AtomicOp.CMPXCHG, (DATA_BASE, 0), 1, None, AtomicOrdering.FULL, 8, "r0"),)
        check(Spec(funcs=((0, (0, 0, 0, 0), body, "r0"),)))

    def test_store_to_null_from_an_undefined_register(self):
        """Operands are read before the access is checked."""
        body = (("store", (0, 0), GHOST, 8, Annot.PLAIN),)
        check(Spec(funcs=((0, (0, 0, 0, 0), body, None),)))

    def test_relaxed_atomic_after_a_delayed_store(self):
        """OEMU flushes the thread's own in-flight store before an
        atomic on the same bytes."""
        body = (
            ("store", (DATA_BASE, 0), 5, 8, Annot.PLAIN),
            ("atomic", AtomicOp.FETCH_ADD, (DATA_BASE, 0), 1, None, AtomicOrdering.RELAXED, 8, "r0"),
            ("load", "r1", (DATA_BASE, 0), 8, Annot.ONCE),
        )
        check(Spec(funcs=((0, (0, 0, 0, 0), body, "r1"),), delay_stores=True, version_loads=True))
