"""Register-provenance dependency analysis (paper Table 6, §10.1.2).

:class:`StaticDeps` tracks, per function, which *load instructions*
each register value may derive from.  From that it answers the LKMM's
three dependency kinds:

* **data**: a store's value derives from a load,
* **address**: an access's base address derives from a load,
* **control**: a store executes under a branch whose condition derives
  from a load.

OEMU never consults it: Case 7 (no load-store reordering) holds by
construction and Case 6 through READ_ONCE window resets
(:mod:`repro.oemu.lkmm`).  KIRA's barrier lint uses it to discharge
Case 6 statically, and the Table 6 tests check each kind on it.
"""

from __future__ import annotations

from typing import FrozenSet


class StaticDeps(object):
    """Static (compile-time) register-provenance analysis.

    Runs a forward dataflow over a function's CFG whose facts are
    ``(register, load_index)`` pairs — "this register's value may derive
    from the load at that instruction index".  KIRA's barrier lint uses
    it to discharge ppo Case 6 (address dependency from an annotated
    load) without running the program.

    Destinations written by calls, helpers and atomics sever the taint
    (their results are not load-derived), which *under*-approximates
    dependencies — the safe direction for a candidate enumerator, since
    a missed dependency only over-reports a reordering candidate that
    the dynamic stage will fail to confirm.
    """

    def __init__(self, func) -> None:
        from repro.kir.cfg import CFG
        from repro.kir.dataflow import solve

        self._cfg = CFG.build(func)
        self._result = solve(self._cfg, _StaticTaintProblem())

    def taint_before(self, index: int) -> FrozenSet:
        """``(reg, load_index)`` pairs live at the point before ``index``."""
        return self._result.fact_before(index)

    def address_dependency(self, load_index: int, later_index: int) -> bool:
        """May ``later_index``'s base address derive from the load at
        ``load_index``?  (Table 6's address dependency, statically.)"""
        from repro.kir.insn import AtomicRMW, Load, Reg, Store

        insn = self._cfg.func.insns[later_index]
        if not isinstance(insn, (Load, Store, AtomicRMW)):
            return False
        base = insn.base
        if not isinstance(base, Reg):
            return False
        return (base.name, load_index) in self.taint_before(later_index)

    def data_dependency(self, load_index: int, store_index: int) -> bool:
        """May the store's *value* derive from the load at ``load_index``?"""
        from repro.kir.insn import Reg, Store

        insn = self._cfg.func.insns[store_index]
        if not isinstance(insn, Store) or not isinstance(insn.src, Reg):
            return False
        return (insn.src.name, load_index) in self.taint_before(store_index)

    def control_dependency(self, load_index: int, store_index: int) -> bool:
        """May the store run under a branch whose operands derive from
        the load at ``load_index``?

        A may-approximation: every such branch that can execute before
        the store counts, even when the store sits past the branch's
        join point and runs on both of its edges.
        """
        from repro.kir.insn import Branch, Reg, Store

        cfg = self._cfg
        insns = cfg.func.insns
        if not isinstance(insns[store_index], Store):
            return False
        for index, insn in enumerate(insns):
            if not isinstance(insn, Branch) or not cfg.reaches(index, store_index):
                continue
            taint = self.taint_before(index)
            for op in (insn.lhs, insn.rhs):
                if isinstance(op, Reg) and (op.name, load_index) in taint:
                    return True
        return False


class _StaticTaintProblem(object):
    """Forward may-taint: facts are frozensets of (reg, load_index)."""

    direction = "forward"

    def boundary(self) -> frozenset:
        return frozenset()

    def top(self) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def transfer(self, insn, index: int, fact: frozenset):
        from repro.kir.insn import BinOp, Load, Mov, Reg, reg_written

        def origins(op) -> frozenset:
            if not isinstance(op, Reg):
                return frozenset()
            return frozenset(o for r, o in fact if r == op.name)

        if isinstance(insn, Load):
            return frozenset(
                p for p in fact if p[0] != insn.dst.name
            ) | {(insn.dst.name, index)}
        if isinstance(insn, Mov):
            keep = frozenset(p for p in fact if p[0] != insn.dst.name)
            return keep | frozenset((insn.dst.name, o) for o in origins(insn.src))
        if isinstance(insn, BinOp):
            keep = frozenset(p for p in fact if p[0] != insn.dst.name)
            new = origins(insn.lhs) | origins(insn.rhs)
            return keep | frozenset((insn.dst.name, o) for o in new)
        written = reg_written(insn)
        if written is not None:
            # Calls/helpers/atomics produce values that are not
            # load-derived: the taint is severed.
            return frozenset(p for p in fact if p[0] != written.name)
        return fact
