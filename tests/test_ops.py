"""Operation vocabulary, registry behaviour, and the standard library."""

import numpy as np
import pytest

from hugr_ir.ops import (
    BasicBlock,
    Call,
    Cfg,
    Conditional,
    Const,
    Extension,
    ExtensionOp,
    FuncDecl,
    FuncDef,
    Input,
    LoadConst,
    LoadFunction,
    Module,
    OpDef,
    OpError,
    Output,
    Registry,
    TailLoop,
    TypeDef,
    ext_op,
    monomorphic,
    port_rows,
    register,
    signature_of,
    stdlib,
    value_signature,
)
from hugr_ir.types import BOOL, F64, QUBIT, EnumType, PolySignature, Signature, VarType


class TestRegistry:
    def test_stdlib_resolves_rz(self, registry):
        assert signature_of(ext_op(registry, "stdlib.quantum", "Rz"), registry) == \
            Signature((QUBIT, F64), (QUBIT,))

    def test_register_empty_extension(self, registry):
        r2 = register(registry, Extension("empty.ext"))
        assert r2.has_extension("empty.ext")
        assert len(r2.extensions()) == len(registry.extensions()) + 1

    def test_register_existing_untouched(self, registry):
        register(registry, Extension("another.ext"))
        assert not registry.has_extension("another.ext")

    def test_duplicate_id_rejected(self, registry):
        with pytest.raises(OpError):
            register(registry, Extension("stdlib.quantum"))

    def test_duplicate_names_within_extension(self):
        with pytest.raises(OpError):
            Extension("e", ops=(OpDef("a", monomorphic((), ())),
                                OpDef("a", monomorphic((), ()))))

    def test_lookup_referentially_transparent(self, registry):
        a = signature_of(ext_op(registry, "stdlib.quantum", "Measure"), registry)
        b = signature_of(ext_op(registry, "stdlib.quantum", "Measure"), registry)
        assert a == b == Signature((QUBIT,), (QUBIT, BOOL))

    def test_unknown_op(self, registry):
        with pytest.raises(OpError):
            ext_op(registry, "stdlib.quantum", "Toffoli")


class TestSignatures:
    def test_input_row(self):
        assert value_signature(Input((QUBIT, F64, F64))) == \
            Signature((), (QUBIT, F64, F64))

    def test_call_instantiates_the_callee_scheme(self):
        foo = monomorphic((QUBIT, QUBIT), (BOOL,))
        assert value_signature(Call((), foo)) == Signature((QUBIT, QUBIT), (BOOL,))

    def test_polymorphic_call_site(self):
        ident = PolySignature(1, Signature((VarType(0),), (VarType(0),)))
        assert value_signature(Call((QUBIT,), ident)) == Signature((QUBIT,), (QUBIT,))

    def test_conditional_prepends_discriminant(self):
        op = Conditional(3, (F64,), (BOOL,))
        assert value_signature(op) == Signature((EnumType(3), F64), (BOOL,))

    def test_static_ports(self):
        foo = monomorphic((QUBIT,), (QUBIT,))
        ins, outs = port_rows(FuncDef("f", foo))
        assert len(ins) == 0 and len(outs) == 1  # just the definition port
        ins, outs = port_rows(Call((), foo))
        assert len(ins) == 2 and len(outs) == 1  # value in + static in

    def test_block_ports_are_control_flow(self):
        ins, outs = port_rows(BasicBlock((QUBIT,), 2))
        assert len(ins) == 1 and len(outs) == 2

    def test_cx_signature(self, registry):
        assert signature_of(ext_op(registry, "stdlib.quantum", "CX"), registry) == \
            Signature((QUBIT, QUBIT), (QUBIT, QUBIT))

    def test_add_signature(self, registry):
        assert signature_of(ext_op(registry, "stdlib.classical", "Add"), registry) == \
            Signature((F64, F64), (F64,))


def test_stdlib_quantum_ops_thread_qubits(registry):
    for ext in registry.extensions():
        if ext.id != "stdlib.quantum":
            continue
        for opdef in ext.ops:
            sig = opdef.scheme.body
            n_in = sum(1 for t in sig.inputs if t == QUBIT)
            n_out = sum(1 for t in sig.outputs if t == QUBIT)
            if opdef.name == "QAlloc":
                assert (n_in, n_out) == (0, 1)
            elif opdef.name == "QFree":
                assert (n_in, n_out) == (1, 0)
            else:
                assert n_in == n_out and n_in >= 1, opdef.name


def test_value_signature_total_over_random_ops(registry):
    """Fuzz: every constructible op kind yields port rows without raising."""
    rng = np.random.default_rng(9)
    pool = [QUBIT, F64, BOOL, EnumType(3)]

    def row():
        return tuple(pool[int(rng.integers(len(pool)))]
                     for _ in range(int(rng.integers(0, 4))))

    for _ in range(300):
        choice = rng.integers(12)
        scheme = PolySignature(0, Signature(row(), row()))
        op = [
            Module(),
            FuncDef("f", scheme),
            FuncDecl("g", scheme),
            Input(row()),
            Output(row()),
            Call((), scheme),
            LoadFunction((), scheme),
            Const(1.0, F64),
            LoadConst(pool[int(rng.integers(len(pool)))]),
            Conditional(int(rng.integers(1, 4)), row(), row()),
            TailLoop(row()),
            Cfg(Signature(row(), row())),
        ][int(choice)]
        ins, outs = port_rows(op)
        assert isinstance(ins, tuple) and isinstance(outs, tuple)
        value_signature(op)


def test_extension_declaration_file_roundtrip(registry):
    from hugr_ir.serial import decode_extension, encode_extension

    ext = Extension(
        "acme.gadgets",
        types=(TypeDef("widget", linear=True),),
        ops=(OpDef("frob", monomorphic((QUBIT,), (QUBIT,)), "frobnicate"),),
    )
    again = decode_extension(encode_extension(ext))
    assert again == ext
    r2 = register(registry, again)
    assert signature_of(ext_op(r2, "acme.gadgets", "frob"), r2) == \
        Signature((QUBIT,), (QUBIT,))


# ── interning ──────────────────────────────────────────────────────

def test_ops_are_one_object_however_constructed():
    from hugr_ir.ops import Value

    h_sig = Signature((QUBIT,), (QUBIT,))
    h = ExtensionOp("stdlib.quantum", "H", (), h_sig)
    assert ExtensionOp(extension="stdlib.quantum", name="H", signature=h_sig) is h
    assert ExtensionOp("stdlib.quantum", "H", signature=h_sig, type_args=()) is h
    assert ExtensionOp("stdlib.quantum", "H") is ExtensionOp("stdlib.quantum", "H", (), Signature())
    assert Value(QUBIT) is Value(type=QUBIT)
    assert Const(0.5, F64) is Const(value=0.5, type=F64)
    assert Module() is Module()


def test_constants_are_keyed_exactly():
    from hugr_ir.types import I64

    ops = [Const(0.0, F64), Const(-0.0, F64), Const(1, I64), Const(1.0, I64),
           Const(True, I64), Const(1, BOOL), Const(True, BOOL)]
    assert len(set(ops)) == len(ops)
    assert [repr(op.value) for op in ops] == ["0.0", "-0.0", "1", "1.0", "True", "1", "True"]
    assert Const(-0.0, F64) is ops[1] and Const(1.0, I64) is ops[3]


def test_an_integral_f64_constant_is_stored_as_a_float():
    assert Const(1, F64) is Const(1.0, F64)
    assert type(Const(2, F64).value) is float and Const(2, F64).value == 2.0
    assert type(Const(True, F64).value) is float


def test_port_rows_are_computed_once_per_op():
    op = Call((F64,), PolySignature(1, Signature((VarType(0),), (VarType(0),))))
    assert op.rows is op.rows == port_rows(op)
