"""Unit tests for the KIR instruction set, builder, linker and interpreter."""

import pytest

from repro.errors import KirError
from repro.kir import Annot, Builder, Cond, Program, Struct
from repro.kir.disasm import disassemble_function, source_context
from repro.kir.function import INSN_SIZE
from repro.kir.insn import BinOpKind, Imm, Reg, as_operand, branch_taken, eval_binop
from repro.kir.validate import validate_program
from repro.machine import Machine
from repro.mem.memory import DATA_BASE


def build_machine(*funcs, **kwargs):
    return Machine(Program(list(funcs)), **kwargs)


class TestOperands:
    def test_as_operand_coercions(self):
        assert as_operand(5) == Imm(5)
        assert as_operand("r1") == Reg("r1")
        assert as_operand(Imm(7)) == Imm(7)

    def test_as_operand_rejects_junk(self):
        with pytest.raises(TypeError):
            as_operand(3.14)

    def test_negative_immediate_wraps(self):
        assert as_operand(-1) == Imm((1 << 64) - 1)


class TestAlu:
    @pytest.mark.parametrize(
        "op,lhs,rhs,expected",
        [
            (BinOpKind.ADD, 2, 3, 5),
            (BinOpKind.SUB, 2, 3, (1 << 64) - 1),
            (BinOpKind.MUL, 1 << 63, 2, 0),
            (BinOpKind.AND, 0b1100, 0b1010, 0b1000),
            (BinOpKind.OR, 0b1100, 0b1010, 0b1110),
            (BinOpKind.XOR, 0b1100, 0b1010, 0b0110),
            (BinOpKind.SHL, 1, 8, 256),
            (BinOpKind.SHR, 256, 8, 1),
            (BinOpKind.EQ, 4, 4, 1),
            (BinOpKind.NE, 4, 4, 0),
            (BinOpKind.LTU, 3, 4, 1),
            (BinOpKind.GEU, 4, 4, 1),
        ],
    )
    def test_eval_binop(self, op, lhs, rhs, expected):
        assert eval_binop(op, lhs, rhs) == expected

    def test_branch_taken_unsigned(self):
        assert branch_taken(Cond.GTU, (1 << 64) - 1, 0)
        assert not branch_taken(Cond.LTU, (1 << 64) - 1, 0)


class TestStruct:
    def test_offsets_and_alignment(self):
        s = Struct("s", [("a", 1), ("b", 8), ("c", 4), ("d", 8, 4)])
        assert s.a == 0
        assert s.b == 8  # aligned up from 1
        assert s.c == 16
        assert s.d == 24
        assert s.size == 24 + 32

    def test_array_elem(self):
        s = Struct("s", [("arr", 8, 4)])
        assert s.elem("arr", 2) == 16
        with pytest.raises(KirError):
            s.elem("arr", 4)

    def test_unknown_field(self):
        s = Struct("s", [("a", 8)])
        with pytest.raises(AttributeError):
            s.missing

    def test_duplicate_field_rejected(self):
        with pytest.raises(KirError):
            Struct("s", [("a", 8), ("a", 8)])


def simple_add_func():
    b = Builder("add2", params=["x", "y"])
    total = b.add("x", "y")
    b.ret(total)
    return b.function()


class TestInterpreterBasics:
    def test_run_simple_function(self):
        m = build_machine(simple_add_func())
        assert m.run("add2", (2, 40)) == 42

    def test_loop_sums_to_n(self):
        b = Builder("sum_to", params=["n"])
        b.mov(0, dst="acc")
        b.mov(0, dst="i")
        top = b.label()
        done = b.label()
        b.bind(top)
        b.bge("i", "n", done)
        b.add("acc", "i", dst="acc")
        b.add("i", 1, dst="i")
        b.jmp(top)
        b.bind(done)
        b.ret("acc")
        m = build_machine(b.function())
        assert m.run("sum_to", (10,)) == 45

    def test_direct_call_and_return_value(self):
        b = Builder("outer", params=["a"])
        r = b.call("add2", "a", 10)
        b.ret(r)
        m = build_machine(simple_add_func(), b.function())
        assert m.run("outer", (5,)) == 15

    def test_indirect_call_through_pointer(self):
        b = Builder("caller", params=["fptr"])
        r = b.icall("fptr", 1, 2)
        b.ret(r)
        m = build_machine(simple_add_func(), b.function())
        target = m.program.func_addr("add2")
        assert m.run("caller", (target,)) == 3

    def test_memory_round_trip(self):
        b = Builder("rw", params=["addr"])
        b.store("addr", 0, 0xDEAD, size=4)
        v = b.load("addr", 0, size=4)
        b.ret(v)
        m = build_machine(b.function())
        assert m.run("rw", (DATA_BASE,)) == 0xDEAD

    def test_small_sizes_truncate(self):
        b = Builder("trunc", params=["addr"])
        b.store("addr", 0, 0x1FF, size=1)
        v = b.load("addr", 0, size=1)
        b.ret(v)
        m = build_machine(b.function())
        assert m.run("trunc", (DATA_BASE,)) == 0xFF

    def test_undefined_register_raises(self):
        b = Builder("bad")
        b.ret("never_set")
        m = build_machine(b.function())
        with pytest.raises(KirError, match="undefined"):
            m.run("bad")

    def test_fuel_exhaustion(self):
        from repro.errors import ExecutionLimitExceeded

        b = Builder("spin")
        top = b.label()
        b.bind(top)
        b.jmp(top)
        b.ret()
        m = build_machine(b.function())
        thread = m.spawn("spin")
        thread.fuel = 100
        with pytest.raises(ExecutionLimitExceeded):
            m.interp.run(thread)

    def test_stack_guard_page(self):
        """Recursion ends at the kernel stack's guard page, long before
        the fuel budget: ``n`` recursive calls need ``n + 1`` frames."""
        from repro.errors import KernelCrash
        from repro.kir.interp import MAX_CALL_DEPTH

        b = Builder("rec", params=["n"])
        base = b.label()
        b.beq("n", 0, base)
        m1 = b.sub("n", 1)
        r = b.call("rec", m1)
        b.ret(b.add(r, 1))
        b.bind(base)
        b.ret(0)
        m = build_machine(b.function())
        assert m.run("rec", (MAX_CALL_DEPTH - 1,)) == MAX_CALL_DEPTH - 1
        with pytest.raises(KernelCrash) as info:
            m.run("rec", (MAX_CALL_DEPTH,))
        report = info.value.report
        assert report.title == "BUG: stack guard page was hit in rec"
        assert report.oracle == "fault"
        assert report.function == "rec"
        assert report.inst_addr == m.program.function("rec").insns[2].addr


class TestLinking:
    def test_addresses_unique_and_resolvable(self):
        f1, f2 = simple_add_func(), Builder("f2")
        f2.ret(0)
        prog = Program([f1, f2.function()])
        addrs = [i.addr for i in prog.all_insns()]
        assert len(addrs) == len(set(addrs))
        for func in prog.functions.values():
            for idx, insn in enumerate(func.insns):
                got_func, got_idx = prog.resolve_addr(insn.addr)
                assert got_func is func and got_idx == idx

    def test_describe_addr(self):
        prog = Program([simple_add_func()])
        assert prog.describe_addr(prog.func_addr("add2")) == "add2+0"

    def test_unknown_call_rejected_at_link(self):
        from repro.errors import LinkError

        b = Builder("f")
        b.call("nonexistent")
        b.ret()
        with pytest.raises(LinkError):
            Program([b.function()])

    def test_func_pointer_resolution(self):
        prog = Program([simple_add_func()])
        assert prog.resolve_func_pointer(prog.func_addr("add2")) is not None
        assert prog.resolve_func_pointer(12345) is None


class TestValidation:
    def test_missing_ret_detected(self):
        from repro.kir.function import Function
        from repro.kir.insn import Nop

        func = Function("f", (), [Nop()])
        prog = Program([func])
        with pytest.raises(KirError, match="ret"):
            validate_program(prog)

    def test_undefined_register_detected_statically(self):
        b = Builder("f")
        b.add("ghost", 1)
        b.ret()
        prog = Program([b.function()])
        with pytest.raises(KirError, match="ghost"):
            validate_program(prog)

    def test_unknown_helper_detected(self):
        b = Builder("f")
        b.helper_void("no_such_helper")
        b.ret()
        prog = Program([b.function()])
        with pytest.raises(KirError, match="no_such_helper"):
            validate_program(prog, helper_names=set())


class TestDisasm:
    def test_disassembly_mentions_every_insn(self):
        func = simple_add_func()
        Program([func])
        text = disassemble_function(func)
        assert "add2" in text and "ret" in text

    def test_source_context_marks_target(self):
        prog = Program([simple_add_func()])
        ctx = source_context(prog, prog.func_addr("add2"))
        assert "=>" in ctx
