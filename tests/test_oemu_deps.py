"""Tests for register-provenance dependency analysis (paper Table 6).

Each case builds one function and asks :class:`StaticDeps` about its
instructions by index: the load first, then the later access.
"""

from repro.kir import Builder, Program
from repro.kir.insn import Load, Store
from repro.mem.memory import DATA_BASE
from repro.oemu.deps import StaticDeps

X = DATA_BASE
PTR = DATA_BASE + 0x40


def analyze(build):
    b = Builder("f")
    build(b)
    b.ret()
    func = Program([b.function()]).function("f")
    loads = [i for i, insn in enumerate(func.insns) if isinstance(insn, Load)]
    stores = [i for i, insn in enumerate(func.insns) if isinstance(insn, Store)]
    return StaticDeps(func), loads, stores


def any_dependency(deps, load, later):
    return (
        deps.data_dependency(load, later)
        or deps.address_dependency(load, later)
        or deps.control_dependency(load, later)
    )


class TestDependencyKinds:
    def test_data_dependency(self):
        """r = *X; *Y = r  — the store's value derives from the load."""
        def build(b):
            v = b.load(X, 0)
            b.store(X, 8, v)

        deps, loads, stores = analyze(build)
        assert deps.data_dependency(loads[0], stores[0])
        assert not deps.address_dependency(loads[0], stores[0])
        assert not deps.control_dependency(loads[0], stores[0])

    def test_address_dependency_store(self):
        """p = *PTR; *p = 1 — the store's address derives from the load."""
        def build(b):
            b.store(PTR, 0, X)  # PTR points at X
            p = b.load(PTR, 0)
            b.store(p, 0, 1)

        deps, loads, stores = analyze(build)
        assert deps.address_dependency(loads[0], stores[1])
        assert not deps.data_dependency(loads[0], stores[1])

    def test_address_dependency_load(self):
        """p = *PTR; v = *p — Table 6: address deps also cover loads."""
        def build(b):
            b.store(PTR, 0, X)
            p = b.load(PTR, 0)
            b.load(p, 0)

        deps, loads, _ = analyze(build)
        assert deps.address_dependency(loads[0], loads[1])

    def test_control_dependency(self):
        """if (*X) *Y = 1 — the store is control-dependent on the load."""
        def build(b):
            v = b.load(X, 0)
            skip = b.label()
            b.bne(v, 0, skip)
            b.store(X, 8, 1)
            b.bind(skip)

        deps, loads, stores = analyze(build)
        assert deps.control_dependency(loads[0], stores[0])
        assert not deps.data_dependency(loads[0], stores[0])

    def test_dependency_through_arithmetic(self):
        """Dependencies propagate through ALU ops (v+1 still depends)."""
        def build(b):
            v = b.load(X, 0)
            w = b.add(v, 1)
            b.store(X, 8, w)

        deps, loads, stores = analyze(build)
        assert deps.data_dependency(loads[0], stores[0])

    def test_dependency_through_mov(self):
        def build(b):
            v = b.load(X, 0)
            w = b.mov(v)
            b.store(X, 8, w)

        deps, loads, stores = analyze(build)
        assert deps.data_dependency(loads[0], stores[0])

    def test_overwrite_kills_taint(self):
        """Reassigning the register breaks the dependency."""
        def build(b):
            v = b.load(X, 0)
            b.mov(7, dst=v)  # overwrite with a constant
            b.store(X, 8, v)

        deps, loads, stores = analyze(build)
        assert not deps.data_dependency(loads[0], stores[0])

    def test_independent_accesses_have_no_edge(self):
        def build(b):
            b.load(X, 0)
            b.store(X + 0x20, 0, 5)

        deps, loads, stores = analyze(build)
        assert not any_dependency(deps, loads[0], stores[0])


class TestControlDependency:
    def test_store_before_the_branch_is_independent(self):
        """A store that cannot run after the branch is not under it."""
        def build(b):
            v = b.load(X, 0)
            b.store(X, 8, 1)
            skip = b.label()
            b.bne(v, 0, skip)
            b.nop()
            b.bind(skip)

        deps, loads, stores = analyze(build)
        assert not deps.control_dependency(loads[0], stores[0])

    def test_branch_on_another_value_is_independent(self):
        def build(b):
            b.load(X, 0)
            w = b.load(X, 16)
            skip = b.label()
            b.beq(w, 0, skip)
            b.store(X, 8, 1)
            b.bind(skip)

        deps, loads, stores = analyze(build)
        assert not deps.control_dependency(loads[0], stores[0])
        assert deps.control_dependency(loads[1], stores[0])

    def test_store_past_the_join_still_counts(self):
        """The may-approximation: a branch that ran earlier on the path
        taints every later store, as the runtime tracker's did."""
        def build(b):
            v = b.load(X, 0)
            join = b.label()
            b.beq(v, 0, join)
            b.nop()
            b.bind(join)
            b.store(X, 8, 1)

        deps, loads, stores = analyze(build)
        assert deps.control_dependency(loads[0], stores[0])

    def test_loop_back_edge_reaches_earlier_store(self):
        """A store earlier in a loop body runs again after the loop's
        branch, so a branch on a loaded value controls it."""
        def build(b):
            top = b.label()
            b.bind(top)
            b.store(X, 8, 1)
            v = b.load(X, 0)
            b.bne(v, 0, top)

        deps, loads, stores = analyze(build)
        assert deps.control_dependency(loads[0], stores[0])

    def test_loads_are_not_control_dependent(self):
        """Table 6's control dependency orders stores only."""
        def build(b):
            v = b.load(X, 0)
            skip = b.label()
            b.bne(v, 0, skip)
            b.load(X, 8)
            b.bind(skip)

        deps, loads, _ = analyze(build)
        assert not deps.control_dependency(loads[0], loads[1])
